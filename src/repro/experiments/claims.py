"""The paper's shape claims as data, and the judge that rules on them.

Each experiment module states what the paper says about its figure once,
as :class:`Claim` rows computed from what its ``run*`` functions return
(``claims(result, scale)``), with the readings known to miss their bound
in a ``DEVIATIONS`` table keyed by claim id beside them.  The harness —
:func:`judge`, called by ``repro experiments`` — owns pass/fail, not the
run: a claim fails the run unless it is a listed deviation, a *strict*
deviation fails the run once it holds again (delete its row in the PR
that repairs it), and so does a deviation no evaluated claim carries.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

PAPER_SCHEMA = "repro.paper/v1"


@dataclass(frozen=True)
class Claim:
    """``lhs op rhs``; ``rhs`` is the bound with its factor applied.

    ``id`` reads ``<figure>/<the inequality>/<group>``.  ``seeded`` claims
    repeat exactly for a given scale; the others read a wall clock.
    ``scales`` names the presets the claim is made at (``None``: all of
    them) — elsewhere it is reported ``skipped``.  ``figure`` is filled in
    by the runner.
    """

    id: str
    lhs: float
    op: str
    rhs: float
    seeded: bool = True
    scales: tuple[str, ...] | None = None
    figure: str = ""

    @property
    def margin(self) -> float:
        """Room left before the claim flips; negative when it fails."""
        if self.op == "==":
            return 0.0 - abs(float(self.lhs) - float(self.rhs))
        slack = float(self.rhs) - float(self.lhs)
        return slack if self.op[0] == "<" else -slack

    @property
    def holds(self) -> bool:
        return self.margin > 0 or (self.margin == 0 and self.op in ("<=", ">=", "=="))


@dataclass(frozen=True)
class Deviation:
    """A claim known to fail at ``scale``: the reading that missed the
    bound and the first commit it fails at.  Nothing is tuned toward the
    bound; a re-measurement is compared with ``reading``."""

    reading: str
    since: str
    strict: bool
    scale: str = "smoke"


#: The statuses that fail a run, as the failure line words them.
_VERDICT = {
    "fail": "false, and not a listed deviation",
    "unexpected-pass": "true, but listed as a strict deviation - delete its row",
}


def judge(claims: list[Claim], deviations: dict[str, Deviation], scale: str) -> dict:
    """Rule on every claim at ``scale``; the ``repro.paper/v1`` report.

    ``report["failures"]`` holds one line per reason the run did not
    reproduce the paper; the run passes when it is empty.
    """
    known = {key: dev for key, dev in deviations.items() if dev.scale == scale}
    rows = []
    for claim in claims:
        listed = known.get(claim.id)
        if claim.scales is not None and scale not in claim.scales:
            status = "skipped"
        elif claim.holds:
            status = "unexpected-pass" if listed is not None and listed.strict else "pass"
        else:
            status = "fail" if listed is None else "deviation"
        rows.append({
            **asdict(claim), "lhs": float(claim.lhs), "rhs": float(claim.rhs),
            "margin": claim.margin, "status": status,
        })
    evaluated = {row["id"] for row in rows if row["status"] != "skipped"}
    failures = [
        f"{row['id']}: {row['lhs']:g} {row['op']} {row['rhs']:g} is {_VERDICT[row['status']]}"
        for row in rows if row["status"] in _VERDICT
    ] + [
        f"{key}: listed as a deviation, but no evaluated claim carries this id"
        for key in known if key not in evaluated
    ]
    return {
        "schema": PAPER_SCHEMA,
        "scale": scale,
        "claims": rows,
        "deviations": [{"id": key, **asdict(dev)} for key, dev in deviations.items()],
        "failures": failures,
    }
