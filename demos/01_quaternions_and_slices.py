"""Tour of the quaternion layer: arithmetic, slice decomposition, principal
powers and truncated exponentials.

Run:  python demos/01_quaternions_and_slices.py
"""

import math

import numpy as np

from ffq import (E1, E2, E3, ONE, Quaternion, SliceFrame, frame_coords,
                 principal_power, slice_decompose, truncated_exp)

print("== basis relations ==")
print("e1*e2 =", E1 * E2, " e2*e3 =", E2 * E3, " e3*e1 =", E3 * E1)
print("e1^2  =", E1 * E1)

q = Quaternion(1.0, 2.0, -0.5, 0.3)
print("\n== a generic quaternion ==")
print("q          =", q)
print("conjugate  =", q.conjugate())
print("|q|        =", q.norm())
print("q * q^-1   =", q * q.inverse())

print("\n== slice structure ==")
# every quaternion lives in a complex plane C(I) spanned by 1 and a unit
# imaginary axis I; the decomposition is q = x + y*I with y >= 0
sp = slice_decompose(q)
print("x =", sp.x, " y =", sp.y)
print("axis =", sp.axis, " |axis| =", sp.axis.norm())
print("polar: mod =", sp.mod, " arg =", sp.arg)
print("reconstructed:", Quaternion(sp.x) + sp.axis * sp.y)

print("\n== principal powers ==")
print("4^(1/2)  =", principal_power(Quaternion(4.0), 0.5))
print("e1^(1/2) =", principal_power(E1, 0.5), " (= exp(e1*pi/4))")
half = principal_power(q, 0.5)
print("q^(1/2)  =", half, " squared ->", half * half)

print("\n== truncated exponentials ==")
for k in (0, 1, 2, 5, math.inf):
    print(f"e_{k}(q/4) =", truncated_exp(q * 0.25, k))
print("Euler check exp(e1*pi):", truncated_exp(E1 * math.pi, math.inf))

print("\n== frames and coordinates ==")
frame = SliceFrame(E1, E2)
c1, c2 = frame_coords(q, frame)
print("q =", c1, "+", c2, "* j  in the frame (e1, e2)")
