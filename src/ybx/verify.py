"""Verification driver: runs identity checks and wraps the outcome in a
structured report with a failure witness.

Reports are deterministic for a given input and seed. The elapsed time is
carried on the report object for humans but deliberately left out of the
JSON form, so identical runs serialize byte-identically.
"""

from __future__ import annotations

import random
import time
from typing import Optional

from .algebra import Algebra
from .constructors import WxzTriple, colored_operator
from .scalars import FrozenRecord, InputError, as_scalar, fresh_name, var
from .tensor import (Operator2, braid_defect, colored_defect, qybe_defect,
                     roundtrip_defect, yb_commutator)


class VerificationReport(FrozenRecord):
    """identity is braid | qybe | colored | wxz | inverse-roundtrip |
    algebra-axioms | super-axioms; mode is symbolic | sampled; status is
    pass | fail, and a failing report must carry a witness. As in the JSON
    form, equality leaves out the elapsed time."""

    __slots__ = ("identity", "mode", "status", "witness", "elapsed", "detail")
    _key = ("identity", "mode", "status", "witness", "detail")
    __hash__ = None     # witness and detail are dicts

    def __init__(self, identity: str, mode: str, status: str,
                 witness: Optional[dict] = None, elapsed: float = 0.0,
                 detail: Optional[dict] = None):
        if status == "fail" and witness is None:
            raise InputError("a failing report must carry a witness")
        super().__init__(identity, mode, status, witness, elapsed,
                         {} if detail is None else detail)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_obj(self) -> dict:
        obj = {
            "identity": self.identity,
            "mode": self.mode,
            "status": self.status,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.detail:
            obj["detail"] = self.detail
        return obj

    def to_text(self) -> str:
        head = f"{self.identity} [{self.mode}]: {self.status.upper()}"
        lines = [head]
        for key in sorted(self.detail):
            lines.append(f"  {key}: {self.detail[key]}")
        if self.witness is not None:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(self.witness.items()))
            lines.append(f"  witness: {parts}")
        lines.append(f"  elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)


def entry_witness(defect, extra=None) -> Optional[dict]:
    """The first nonzero entry of defect (row-major) as a witness dict,
    with the extra context keys added; None when defect is zero."""
    found = defect.first_nonzero()
    if found is None:
        return None
    row, col, entry = found
    witness = {"row": row, "col": col, "entry": str(entry)}
    if extra:
        witness.update(extra)
    return witness


def report(identity: str, mode: str, t0: float, witness: Optional[dict],
           detail: Optional[dict] = None) -> VerificationReport:
    """A report that passes exactly when witness is None, timed from t0
    (a time.perf_counter() reading)."""
    return VerificationReport(
        identity=identity,
        mode=mode,
        status="pass" if witness is None else "fail",
        witness=witness,
        elapsed=time.perf_counter() - t0,
        detail=detail,
    )


def verify_constant(R: Operator2, which: str = "braid") -> VerificationReport:
    """Check the braid identity or the constant QYBE for one operator."""
    if which not in ("braid", "qybe"):
        raise InputError("which must be 'braid' or 'qybe'")
    t0 = time.perf_counter()
    defect = braid_defect(R) if which == "braid" else qybe_defect(R)
    return report(which, "symbolic", t0, entry_witness(defect))


def verify_colored_family(A: Algebra, p, q, mode: str = "symbolic",
                          samples: int = 50, seed: int = 0) -> VerificationReport:
    """Check the two-parameter identity for the colored family on A.

    Symbolic mode instantiates the three spectral parameters as fresh
    indeterminates and demands the defect vanish identically. Sampled mode
    draws integer triples from a seeded generator; triples on the locus
    where the inverse formula degenerates are skipped, not failed.
    """
    p = as_scalar(p)
    q = as_scalar(q)
    t0 = time.perf_counter()

    def defect_at(u, v, w):
        return colored_defect(
            colored_operator(A, p, q, u, v),
            colored_operator(A, p, q, u, w),
            colored_operator(A, p, q, v, w),
        )

    if mode == "symbolic":
        taken = set(A.names | p.names | q.names)
        uvw = []
        for base in ("u", "v", "w"):
            name = fresh_name(base, taken)
            taken.add(name)
            uvw.append(name)
        witness = entry_witness(defect_at(*(var(nm) for nm in uvw)))
        return report("colored", "symbolic", t0, witness,
                      {"parameters": uvw})
    if mode != "sampled":
        raise InputError("mode must be 'symbolic' or 'sampled'")

    rng = random.Random(seed)
    evaluated = 0
    skipped = 0
    witness = None
    for _ in range(samples):
        u, v, w = (rng.randint(-9, 9) for _ in range(3))
        if any((p * s - q * t).is_zero or (q * s - p * t).is_zero
               for s, t in ((u, v), (u, w), (v, w))):
            skipped += 1
            continue
        evaluated += 1
        witness = entry_witness(defect_at(u, v, w),
                                extra={"point": {"u": u, "v": v, "w": w}})
        if witness is not None:
            break
    if evaluated == 0:
        witness = {"reason": "no sample point off the degenerate locus"}
    return report("colored", "sampled", t0, witness,
                  {"evaluated": evaluated, "skipped": skipped, "seed": seed})


def verify_wxz(t: WxzTriple) -> VerificationReport:
    """Check all four commutator conditions; the witness names the first
    failing one."""
    t0 = time.perf_counter()
    conditions = (
        ("[W,W,W]", (t.W, t.W, t.W)),
        ("[Z,Z,Z]", (t.Z, t.Z, t.Z)),
        ("[W,X,X]", (t.W, t.X, t.X)),
        ("[X,X,Z]", (t.X, t.X, t.Z)),
    )
    detail = {}
    witness = None
    for cond, ops in conditions:
        found = entry_witness(yb_commutator(*ops), extra={"condition": cond})
        detail[cond] = "zero" if found is None else "nonzero"
        if found is not None and witness is None:
            witness = found
    return report("wxz", "symbolic", t0, witness, detail)


def verify_inverse_pair(R: Operator2, Rinv: Operator2) -> VerificationReport:
    """Check that R o Rinv is the identity. One composition decides both:
    over the field Q(params), AB = I for square A and B gives
    det A * det B = 1, so B = A^-1 and BA = I too. A failing witness names
    that side, "R o Rinv"."""
    t0 = time.perf_counter()
    witness = entry_witness(roundtrip_defect(R, Rinv),
                            extra={"side": "R o Rinv"})
    return report("inverse-roundtrip", "symbolic", t0, witness)
