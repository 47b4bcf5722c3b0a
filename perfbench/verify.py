"""The correctness gate: certify each unique answer, then compare bytes.

A certified answer is the unique correct one (``ceil(2**mu * x_k)``
over the distinct real roots is a function of the input), so it serves
as the reference every other answer for the same ``(coeffs, bits)`` is
compared with byte for byte.

Certification uses a cell check when it can decide: ``k = deg(p)``
strictly ascending values ``v`` whose grid cells ``((v-1)/2^mu,
v/2^mu]`` each show a sign change of ``p`` (or a zero at the right
end) hold at least one root each, and a degree-k polynomial has at
most k roots, so each cell holds exactly one and the answer is exact.
That is 2k Horner evaluations instead of a Sturm chain.  Anything the
check cannot decide (repeated roots, a zero at a left end, two roots in
one cell) goes to ``repro.certify_roots``.
"""

from __future__ import annotations

import hashlib


def _sign_at(coeffs: list[int], y: int, mu: int) -> int:
    """Sign of ``p(y / 2**mu)`` via ``2**(mu*deg) p(y / 2**mu)``."""
    acc = 0
    for i, c in enumerate(reversed(coeffs)):
        acc = acc * y + (c << (mu * i))
    return (acc > 0) - (acc < 0)


def _cells_hold_roots(coeffs: list[int], scaled: list[int], mu: int) -> bool:
    if len(scaled) != len(coeffs) - 1:
        return False
    if any(b <= a for a, b in zip(scaled, scaled[1:])):
        return False
    signs: dict[int, int] = {}
    for v in scaled:
        for y in (v - 1, v):
            if y not in signs:
                signs[y] = _sign_at(coeffs, y, mu)
        lo, hi = signs[v - 1], signs[v]
        if lo == 0 or (hi != 0 and lo == hi):
            return False
    return True


def certify(coeffs: list[int], scaled: list[int], mu: int) -> None:
    """Raise ``repro.CertificationError`` unless ``scaled`` is the exact
    answer for ``coeffs`` at ``mu`` bits."""
    coeffs = list(coeffs)
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    if _cells_hold_roots(coeffs, scaled, mu):
        return
    # The answer format carries no multiplicities: certify the distinct
    # roots, with a nominal multiplicity vector that meets
    # certify_roots' degree-sum precondition.
    from repro import IntPoly, certify_roots

    mult = [1] * len(scaled)
    if mult:
        mult[-1] += len(coeffs) - 1 - len(scaled)
    certify_roots(IntPoly(coeffs), scaled, mult, mu)


def job_key(job: dict) -> str:
    """Content key of one ``(coeffs, bits)`` job."""
    text = ",".join(str(c) for c in job["coeffs"]) + f"@{job['bits']}"
    return hashlib.sha256(text.encode()).hexdigest()


class Gate:
    """Certifies each unique ``(coeffs, bits)`` once and compares every
    answer for it byte for byte against the certified one."""

    def __init__(self) -> None:
        self.reference: dict[str, list[str]] = {}
        self.wrong: list[str] = []

    def check(self, job: dict, answer: list[str]) -> bool:
        key = job_key(job)
        ref = self.reference.get(key)
        if ref is None:
            try:
                certify(job["coeffs"], [int(s) for s in answer], job["bits"])
            except (AssertionError, ValueError) as e:
                self.wrong.append(f"degree {job['degree']} bits "
                                  f"{job['bits']}: {e}")
                return False
            self.reference[key] = answer
            return True
        if answer != ref:
            self.wrong.append(f"degree {job['degree']} bits {job['bits']}: "
                              "answer differs from the certified one")
            return False
        return True
