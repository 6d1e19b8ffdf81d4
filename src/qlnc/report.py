"""Run records: outcome ledger, correction log, classical-message ledger.

A RunReport is the complete audit trail of one protocol execution, rich
enough to replay every classical decision: raw and adjusted measurement
outcomes with provenance, every correction exponent applied, and every
classical message with its routing flags.  Serialization is deterministic
(insertion-ordered dicts, no volatile fields by default) so identical seeds
give byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["OutcomeRecord", "CorrectionRecord", "MessageRecord", "RunReport"]


@dataclass
class OutcomeRecord:
    qudit: str
    raw: int
    adjusted: int
    stage: str
    # contributing upstream outcomes, stored as (qudit, coefficient) with the
    # convention adjusted = raw - sum(coeff * adjusted_upstream) mod d
    provenance: tuple = ()


@dataclass
class CorrectionRecord:
    op: str  # "X" or "Z"
    qudit: str
    exponent: int
    stage: str


@dataclass
class MessageRecord:
    sender: str
    receiver: str
    payload: str
    size: int = 1  # in Z_d symbols
    over_network: bool = False
    backward: bool = False


@dataclass
class RunReport:
    path: str  # "classical" | "coherent" | "mbqc" | "compare"
    d: int
    mode: str | None = None
    seed: int | None = None
    forced_outcomes: list | None = None
    outcomes: list[OutcomeRecord] = field(default_factory=list)
    corrections: list[CorrectionRecord] = field(default_factory=list)
    messages: list[MessageRecord] = field(default_factory=list)
    resource_counts: dict | None = None
    requires_out_of_network: bool = False
    fidelity_vs_oracle: float | None = None
    depends: dict = field(default_factory=dict)
    wall_time_ms: float | None = None
    extra: dict = field(default_factory=dict)

    def ledger_replay_consistent(self):
        """Re-derive each adjusted outcome from raws via its provenance."""
        adjusted = {}
        for rec in self.outcomes:
            acc = rec.raw
            for qudit, coeff in rec.provenance:
                acc -= coeff * adjusted[qudit]
            adjusted[rec.qudit] = acc % self.d
            if adjusted[rec.qudit] != rec.adjusted % self.d:
                return False
        return True

    def to_dict(self):
        doc = {
            "version": 1,
            "path": self.path,
            "d": self.d,
            "mode": self.mode,
            "seed": self.seed,
            "forced_outcomes": self.forced_outcomes,
            "outcomes": [
                {
                    "qudit": o.qudit,
                    "raw": o.raw,
                    "adjusted": o.adjusted,
                    "stage": o.stage,
                    "provenance": [[q, c] for q, c in o.provenance],
                }
                for o in self.outcomes
            ],
            "corrections": [
                {"op": c.op, "qudit": c.qudit, "exponent": c.exponent, "stage": c.stage}
                for c in self.corrections
            ],
            "messages": [
                {
                    "from": m.sender,
                    "to": m.receiver,
                    "payload": m.payload,
                    "size": m.size,
                    "over_network": m.over_network,
                    "backward": m.backward,
                }
                for m in self.messages
            ],
            "resource_counts": self.resource_counts,
            "requires_out_of_network": self.requires_out_of_network,
            "fidelity_vs_oracle": self.fidelity_vs_oracle,
            "depends": {k: list(map(int, v)) for k, v in self.depends.items()},
            "wall_time_ms": self.wall_time_ms,
        }
        doc.update(self.extra)
        return doc
