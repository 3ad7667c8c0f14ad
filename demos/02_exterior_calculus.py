"""
Exterior calculus on R^3
========================

Vector fields, differential forms, wedge products, exterior derivatives,
Lie brackets, and frame/coframe duality, all with symbolic coefficients.
"""
from cartan_contact import (
    OneForm,
    VectorField,
    apply_two_form,
    commutator,
    complete_frame,
    dot,
    dual_coframe,
    exterior_derivative,
    exterior_derivative2,
    gram_schmidt,
    wedge,
)

##############################################################################
# The running example: the plane field spanned by X1 = d/dx - y d/dz and
# X2 = d/dy + x d/dz.  Its commutator escapes the plane everywhere.

X1 = VectorField("1", "0", "-y")
X2 = VectorField("0", "1", "x")
bracket = commutator(X1, X2)
print("[X1, X2] at a few points:",
      bracket.at((0, 0, 0)), bracket.at((1, -2, 0.5)))

##############################################################################
# The 1-form y dx - x dy + dz annihilates both generators; its exterior
# derivative is -2 dx^dy, so the plane field is maximally non-integrable.

eta = OneForm("y", "-x", "1")
print("eta(X1), eta(X2) at (1,2,3):",
      dot(eta, X1)((1, 2, 3)), dot(eta, X2)((1, 2, 3)))
d_eta = exterior_derivative(eta)
print("d eta in (dy^dz, dz^dx, dx^dy):", d_eta.at((1, 2, 3)))
print("d(d eta) =", exterior_derivative2(d_eta)((1, 2, 3)))

##############################################################################
# Orthonormalise the generators (ambient Euclidean product), complete the
# frame with the commutator, and invert for the dual coframe.

e1, e2 = gram_schmidt(X1, X2)
frame = complete_frame(e1, e2)
coframe = dual_coframe(frame)
print("e1 at (0,1,0):", frame.e1.at((0, 1, 0)))
print("e3 = [e1,e2] at origin:", frame.e3.at((0, 0, 0)))
print("eta3 at origin:", coframe.eta3.at((0, 0, 0)))

##############################################################################
# Duality: the pairing eta^i(e_j) is the identity matrix wherever the frame
# is defined.

p = (0.4, -1.1, 2.0)
pairing = [[round(dot(etai, ej).evaluate(p), 12)
            for ej in frame.fields] for etai in coframe.forms]
for row in pairing:
    print(row)

##############################################################################
# Wedge products and 2-form application follow the cyclic basis
# (dy^dz, dz^dx, dx^dy).

w = wedge(coframe.eta1, coframe.eta2)
print("(eta1 ^ eta2)(e1, e2) =", apply_two_form(w, frame.e1, frame.e2).evaluate(p))
