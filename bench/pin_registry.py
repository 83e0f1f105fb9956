"""Pin the registry answers the ``registry`` workload is checked against.

    python3 bench/pin_registry.py

Writes ``registry_expected.json``: the sha256 of each report's JSON, the
sha256 of the whole ``render_json`` output in canonical order, and the
verdict tally.  It refuses to pin unless that digest equals the sha256 of
``projstruct verify-paper --json``.  Re-pin only for an intended change
of the registry's output.
"""

import contextlib
import io
import json
import os

import workloads
from worker import import_projstruct


def main():
    root = os.path.dirname(workloads.HERE)
    ps = import_projstruct(root)
    registry = workloads.RegistryPass(ps, 0, None)
    reports = {}
    for position, (cid, k, params) in enumerate(registry.samples):
        report = ps.run_case(cid, params, workloads.REGISTRY_ORDER)[0]
        registry.reports[position] = report
        reports["%s#%d" % (cid, k)] = workloads.sha256(ps.render_json([report]))
    text = registry.render()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        ps.cli.dispatch(["verify-paper", "--json"])
    if workloads.sha256(out.getvalue()) != workloads.sha256(text):
        raise SystemExit("per-sample reports do not reproduce verify-paper")
    tally = {"pass": 0, "paper-inconsistent": 0, "recorded": 0, "fail": 0}
    for report in json.loads(text):
        for check in report["checks"]:
            tally[check["verdict"]] += 1
    pinned = {"digest": workloads.sha256(text), "tally": tally,
              "reports": reports}
    path = os.path.join(workloads.HERE, "registry_expected.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("pinned %d reports, digest %s" % (len(reports), pinned["digest"]))


if __name__ == "__main__":
    main()
