"""Unfold the billiard: five reflections straighten two orbit periods.

Reflecting the triangle across AB, AC1, B1C1, A1B1 and A1C2 in turn maps
the orthic orbit onto a straight segment K -> K2 of length twice the orbit.
The altitude feet of every copy line up on that segment (the orthic line),
and the strip of parallels between the lines through A and A1 folds back
to more billiard-type schedules.  Writes out/unfolding.svg.
"""

import os

from tripatrol import Point, Triangle, orthic_perimeter, reflection_chain, sub_orthic_schedule
from tripatrol.svgout import channel_svg

t = Triangle(Point(0.0, 0.0), Point(2.2, 0.2), Point(0.9, 1.6))
unf = reflection_chain(t)  # the Unfolding: reflected copies, orthic line, channel

print("reflected vertices:")
copies = unf.copies  # the base A, B, C, then (A, B, C1), (A, B1, C1), ...
for name, v in (("C1", copies[1].c), ("B1", copies[2].b), ("A1", copies[3].a),
                ("C2", copies[4].c), ("B2", copies[5].b)):
    print(f"  {name} = {v}")

k, k2 = unf.k, unf.k2
per = orthic_perimeter(t)
print("\n|K K2| =", k.dist(k2), " = 2 x orthic perimeter =", 2 * per)

pts = {"K": unf.k, "M": unf.m, "L1": unf.l1, "K1": unf.k1,
       "M1": unf.m1, "L2": unf.l2, "K2": unf.k2}
print("\ncollinearity of the altitude-foot images (residual area per triple):")
worst = 0.0
names = list(pts)
for i in range(len(names)):
    for j in range(i + 1, len(names)):
        for l in range(j + 1, len(names)):
            p, q, r = pts[names[i]], pts[names[j]], pts[names[l]]
            worst = max(worst, abs((q - p).cross(r - p)))
print("  worst |det| over all triples:", worst)

print("\nchannel half width (A and A1 lie this far from the orthic line):",
      unf.half_width)

sched = sub_orthic_schedule(t, 0.6)
os.makedirs("out", exist_ok=True)
with open("out/unfolding.svg", "w", encoding="utf-8") as fh:
    fh.write(channel_svg(unf, list(sched.positions)))
print("\nwrote out/unfolding.svg (copies gray, orthic line green, channel red,")
print("folded 6-point trajectory blue)")
