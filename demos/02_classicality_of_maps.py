#!/usr/bin/env python3
"""When is a Bogoliubov transformation classical?

A map of ladder operators that preserves the commutation relations can
still scramble the reduced (single-particle) description by mixing the
annihilation and creation sectors.  Two predicates decide the question:

* closed system: classical iff the whole lower block vanishes, which
  makes the map passive (a beam-splitter/phase network);
* open system with a vacuum environment: classical iff only the system
  sub-block of the lower block vanishes -- a strictly weaker demand.

The same physical transformation can therefore be quantum for one
system/environment split and classical for another.
"""

import numpy as np

from rsfield.numerics import max_abs
from rsfield.symplectic import (
    compose,
    from_blocks,
    is_classical_closed,
    is_classical_open,
)

print("=" * 70)
print("1. A beam splitter is passive: classical in every sense")
print("=" * 70)
th = 0.7
u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
bs = from_blocks(u, np.zeros((2, 2), dtype=complex), n_sys=1, n_env=1)
print(f"symplectic residual     : {bs.symplectic_residual():.2e}")
print(f"unitary upper block     : {max_abs(bs.x_up @ bs.x_up.conj().T - np.eye(2)):.2e}")
print(f"classical (closed view) : {is_classical_closed(bs)}")
print(f"classical (open view)   : {is_classical_open(bs)}")

print()
print("=" * 70)
print("2. A two-mode squeezer mixes the sectors: quantum as a closed system")
print("=" * 70)
r = 0.3
c = np.cosh(r) * np.eye(2, dtype=complex)
s = np.sinh(r) * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sq = from_blocks(c, s, n_sys=1, n_env=1)
print(f"symplectic residual     : {sq.symplectic_residual():.2e}")
print(f"classical (closed view) : {is_classical_closed(sq)}")
print("... but mode 1 alone, with mode 2 as a vacuum environment, only")
print("feels the squeezing as semi-classical pumping:")
print(f"classical (open view)   : {is_classical_open(sq)}")

print()
print("=" * 70)
print("3. The verdict depends on the partition, not just the matrix")
print("=" * 70)
c4 = np.cosh(r) * np.eye(4, dtype=complex)
z2 = np.zeros((2, 2))
s4 = np.sinh(r) * np.block([[z2, np.eye(2)], [np.eye(2), z2]]).astype(complex)
two_pair = from_blocks(c4, s4, n_sys=2, n_env=2)
perm = np.zeros((4, 4), dtype=complex)
for new, old in enumerate((0, 2, 1, 3)):  # interleave the two groups
    perm[new, old] = 1.0
p = from_blocks(perm, np.zeros((4, 4), dtype=complex), 2, 2)
relabelled = compose(compose(p, two_pair), p.inverse())
print(f"original grouping   : classical_open = {is_classical_open(two_pair)}")
print(f"interleaved grouping: classical_open = {is_classical_open(relabelled)}")
print("(same transformation, different notion of 'system')")
