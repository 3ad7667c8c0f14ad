"""
Screening two plane fields by their invariant
=============================================

Equal sampled invariants are necessary for equivalence, never sufficient;
different ones distinguish.  The two builtin contact examples separate
cleanly, while regenerating the same plane field leaves M untouched.
"""
from cartan_contact import Distribution, compare, corpus, default_grid_points

points = default_grid_points()
heisenberg = corpus.distribution("heisenberg")
cartan = corpus.distribution("cartan")

##############################################################################
# The two examples attain disjoint invariant value sets on the grid.

result = compare(heisenberg, cartan, points)
print("heisenberg M range:", result.report_a.m_range())
print("cartan     M range:", result.report_b.m_range())
print("verdict:", result.verdict)

##############################################################################
# M depends only on the plane field and its metric, not on the generators:
# respanning with a constant positive-determinant matrix changes nothing.

respanned = Distribution(
    heisenberg.X1 + heisenberg.X2,
    heisenberg.X2,
    name="heisenberg-respanned",
)
again = compare(heisenberg, respanned, points)
print("respanned verdict:", again.verdict)

base = {s.point: s.M for s in again.report_a.ok_samples()}
worst = max(abs(s.M - base[s.point]) for s in again.report_b.ok_samples())
print("worst pointwise |M - M_respanned|:", worst)

##############################################################################
# Self-comparison is the degenerate case of the same verdict.

print("self comparison:", compare(heisenberg, heisenberg, points).verdict)
