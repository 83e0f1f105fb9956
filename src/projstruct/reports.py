"""Result records for the verification registry and their rendering.

A check is one verified statement; a case report bundles the checks run
for one catalog entry at one parameter sample.  Verdicts:

* ``pass`` — the statement holds on its window, the least eff of its parts.
* ``fail`` — it does not.
* ``paper-inconsistent`` — the computation succeeds but contradicts the
  recorded claim; the computed value is reported.
* ``recorded`` — a measurement or note without an asserted expectation.

JSON output is schema-stable: one object per report with keys
``{case, params, order, checks}`` and per-check keys exactly
``{name, verdict, residual_leading_term}``; anything richer (details,
measured values) lives only in the text rendering.
"""

import json

from .jets import Jet2, first_nonzero, format_jet
from .records import Record

PASS = "pass"
FAIL = "fail"
INCONSISTENT = "paper-inconsistent"
RECORDED = "recorded"


def leading_term(jet):
    """The lowest-degree nonzero term of a jet as text ("0" if none)."""
    if not jet.coeffs:
        return "0"
    i, j = min(jet.coeffs, key=lambda key: (key[0] + key[1], key[0]))
    return format_jet(Jet2.monomial(i, j, jet.coeff(i, j), jet.order))


class CheckResult(Record):
    name: str
    verdict: str
    residual_leading_term: str = "0"
    detail: str = ""


class CaseReport(Record):
    case: str
    title: str
    params: dict
    order: int
    checks: tuple

    @property
    def verdict(self):
        return FAIL if any(c.verdict == FAIL for c in self.checks) else PASS

    def json_object(self):
        return {
            "case": self.case,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "order": self.order,
            "checks": [
                {"name": c.name, "verdict": c.verdict,
                 "residual_leading_term": c.residual_leading_term}
                for c in self.checks
            ],
        }


def passed(name, detail=""):
    return CheckResult(name, PASS, "0", detail)


def failed(name, residual="0", detail=""):
    return CheckResult(name, FAIL, residual, detail)


def recorded(name, detail=""):
    return CheckResult(name, RECORDED, "0", detail)


def zero_check(name, jets, detail="", slots=None):
    """:func:`~projstruct.jets.first_nonzero` of ``jets`` as a check.

    A failure reports the leading term of the first part that does not
    vanish, with ``detail`` or, when that is empty, "<slot>-slot differs"
    named from ``slots``.
    """
    if (witness := first_nonzero(jets)) is None:
        return passed(name, detail)
    k, jet = witness
    if slots and not detail:
        detail = "%s-slot differs" % slots[k]
    return failed(name, leading_term(jet), detail)


def render_json(reports, generated_at=None):
    payload = [r.json_object() for r in reports]
    if generated_at is not None:
        payload = {"generated_at": generated_at, "cases": payload}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_text(reports, generated_at=None):
    lines = []
    if generated_at is not None:
        lines.append("generated at %s" % generated_at)
        lines.append("")
    counts = {PASS: 0, FAIL: 0, INCONSISTENT: 0, RECORDED: 0}
    for report in reports:
        params = ", ".join("%s=%s" % (k, v)
                           for k, v in sorted(report.params.items()))
        head = "case %s" % report.case
        if params:
            head += " (%s)" % params
        head += "  [order %d]" % report.order
        lines.append(head)
        lines.append("  %s" % report.title)
        for c in report.checks:
            counts[c.verdict] += 1
            line = "  [%s] %s" % (c.verdict, c.name)
            if c.verdict not in (PASS, RECORDED) and \
                    c.residual_leading_term != "0":
                line += "  residual: %s" % c.residual_leading_term
            if c.detail:
                line += "  -- %s" % c.detail
            lines.append(line)
        lines.append("  verdict: %s" % report.verdict)
        lines.append("")
    lines.append("reports: %d  checks: pass=%d fail=%d %s=%d recorded=%d"
                 % (len(reports), counts[PASS], counts[FAIL], INCONSISTENT,
                    counts[INCONSISTENT], counts[RECORDED]))
    return "\n".join(lines) + "\n"
