"""Descriptors for infinite abelian groups and the completion functors.

Run:  python demos/02_group_descriptors.py
"""

from limext import (
    GroupDescriptor,
    completion_cokernel,
    extension_classes,
    finite_coefficients_descriptor,
    lim1_mult_p,
    max_p_divisible,
    six_term_mult_p,
    tate_module,
)
from limext.fg_groups import GroupStructure

p = 5

# Blocks compose by formal direct sum.
g = GroupDescriptor.free() + GroupDescriptor.cyclic_group(50) \
    + GroupDescriptor.localized(p) + GroupDescriptor.q_mod_z()
print("G =", g)

# The Tate module at p sees only the Pruefer part at p.
print("T_5 G          =", tate_module(g, p))

# The maximal 5-divisible subgroup drops Z, Z_(5), and the 5-part of C50.
print("max 5-div of G =", max_p_divisible(g, p))

# Finite coefficients: (G/5^2 G, 25-torsion of G).
quotient, torsion = finite_coefficients_descriptor(
    GroupDescriptor.cyclic_group(125), p, 2
)
print("C125 / 25      =", quotient, "   torsion:", torsion)

# The derived limit of multiplication by 5 on Z_(5) is a huge uniquely
# divisible group: the quotient of the 5-adic integers by the localization.
print("lim^1 (Z_(5), 5) =", lim1_mult_p(GroupDescriptor.localized(p), p))

# All six terms of the derived-limit sequence.  They come from the functors
# above, so the sequence is exact by construction; the tests hold the evidence.
seq = six_term_mult_p(GroupDescriptor.free(), p)
print("\nsix terms for (Z, x5):")
for name, term in zip(
    ("tate", "lim", "lim p^j", "lim1 torsion", "lim1", "lim1 p^j"), seq.terms()
):
    print(f"  {name:13s} {term}")

# The completion comparison map has cokernel Tate + uniquely divisible.
print("\ncompletion cokernel (Z_(5) -> Pruefer(5)):",
      completion_cokernel(GroupDescriptor.localized(p),
                          GroupDescriptor.pruefer_group(p), p))

# Extensions of a divisible group by a finite group split off a quotient.
classes = extension_classes(
    GroupDescriptor.pruefer_group(p), GroupStructure.from_factors([25])
)
print("\nextensions of Pruefer(5) by C25:")
for cls in sorted(str(c) for c in classes):
    print("  ", cls)
