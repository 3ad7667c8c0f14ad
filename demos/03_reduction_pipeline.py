"""
The reduction pipeline, stage by stage
======================================

From two generating vector fields to the differential invariant
M = a1^2 + a2^2, walking through the three coframe stages.
"""
from cartan_contact import (
    absorb_translations,
    build_adapted,
    classify,
    contact_torsion,
    corpus,
    default_grid_points,
    extract_invariants,
    normalize_scale,
    reduce,
)

points = default_grid_points()
dist = corpus.distribution("heisenberg")

##############################################################################
# Step 0: classification.  det(X1, X2, [X1, X2]) = 2 everywhere, so the
# planes never integrate: a contact distribution.

cls = classify(dist, points)
print("classification:", cls.kind)
print("det3 at first point:", cls.records[0].det3)

##############################################################################
# Step 1: the adapted coframe (stage B0).  Gram-Schmidt pair, third frame
# leg e3 = [e1, e2], coframe by symbolic matrix inversion.  The d(eta3)
# coefficient against eta1^eta2 is -1 for any such section: duality forces
# (d eta3)(e1, e2) = -eta3([e1, e2]) = -1.

b0 = build_adapted(dist)
t = contact_torsion(b0)
print("B0 torsion (t23, t31, t12) at (1, 0, 0.3):",
      [round(f.evaluate((1, 0, 0.3)), 12) for f in (t.t23, t.t31, t.t12)])

##############################################################################
# Step 2a: scale normalisation (stage B1): eta3 -> eta3 / t12 makes the
# coefficient exactly 1.

b1 = normalize_scale(b0)
print("B1 t12 at (1, 0, 0.3):",
      round(contact_torsion(b1).t12.evaluate((1, 0, 0.3)), 12))

##############################################################################
# Step 2b: translation absorption (stage B2): the remaining d(eta3)
# coefficients move into eta1 and eta2; afterwards d(eta3) = eta1^eta2.

b2 = absorb_translations(b1)
t2 = contact_torsion(b2)
print("B2 torsion row at (1, 0, 0.3):",
      [round(f.evaluate((1, 0, 0.3)), 12) for f in (t2.t23, t2.t31, t2.t12)])

##############################################################################
# Step 3: absorb the pseudoconnection and read off the invariant.

inv = extract_invariants(b2)
print("M at (1, 0, 0.3):", inv.M.evaluate((1, 0, 0.3)), "(closed form: 9/64)")
print("M at (0, 0, 0.3):", inv.M.evaluate((0, 0, 0.3)))


def closed_form(x, y):
    r = x * x + y * y
    return 2.25 * r * r / (1 + r) ** 4


print("closed form at (1, 0):", closed_form(1, 0))

##############################################################################
# reduce reaches the same B2 section without these stages: it builds the
# outputs from the structure functions of the generator frame
# (X1, X2, [X1, X2]), then evaluates them per point, with singular-point
# handling and residual checks.

report = reduce(dist, points)
print("ok points:", report.n_ok, "of", len(report.samples))
print("M range over the grid:", report.m_range())
worst = max(abs(s.M - closed_form(s.point.x, s.point.y)) for s in report.ok_samples())
print("worst absolute deviation from the closed form:", worst)
