"""
Scalar fields: parse, differentiate, evaluate
=============================================

The expression core works with functions of (x, y, z) written in a small
grammar: numbers, coordinates x/y/z (aliases x1/x2/x3), + - * /, integer
powers ^, unary minus, and sqrt/sin/cos/exp.
"""
from cartan_contact import DomainError, parse

##############################################################################
# Parsing and evaluation.  Precedence is ^ > unary minus > * / > + -, with
# ^ right-associative and restricted to integer exponents.

f = parse("y/(2*sqrt(1+y^2))")
print("f(x,y,z) =", f)
print("f at (0, 1, 0) =", f.evaluate((0, 1, 0)))

g = parse("-x^2 + 2^3^2")
print("g at (3, 0, 0) =", g((3, 0, 0)))        # fields are callable too

##############################################################################
# Exact symbolic differentiation.  Derivatives stay inside the same grammar,
# so they can be differentiated again (the reduction pipeline needs third
# derivatives of its inputs).

df = f.diff("y")
print("df/dy =", df)
print("df/dy at (0, 1, 0) =", df((0, 1, 0)))
print("d2f/dy2 at (0, 1, 0) =", df.diff("y")((0, 1, 0)))

##############################################################################
# Printing round-trips through the parser with identical evaluation.

back = parse(df.to_text())
print("round-trip exact:", back((0.2, -1.3, 4.0)) == df((0.2, -1.3, 4.0)))

##############################################################################
# Evaluation outside the domain raises DomainError with the offending point
# and sub-expression.

try:
    parse("x/y")((1, 0, 0))
except DomainError as err:
    print("domain error:", err)

##############################################################################
# Operator overloading builds fields programmatically; neutral elements and
# constants fold away, everything else is left untouched.

x, c = parse("x"), parse("3")
h = (x + 0) * 1 + c * c
print("(x + 0)*1 + 3*3  ->", h)
