#!/usr/bin/env python3
# Integral comparison of the curvature variants.
#
# Three scalar curvatures (plain R, the gradient-reduced R_L, and the
# weighted-connection R_WY) and four Ricci-type tensors are ordered after
# integration.  The Killing-restricted orderings are exercised on a curved
# product torus whose coordinate field is Killing of constant norm, both
# against the volume form and against the slowly-varying weight built from
# u~ = u - min u + c0, c0 ln c0 = 1.
#
# Run: python3 demo_comparison.py

import numpy as np

from rlab.comparison import (killing_report, lemma57_defect, ricci_order,
                             scalar_order, tilde_weight,
                             weighted_divergence_integral, yano_defect,
                             yano_oracle_factor)
from rlab.instances import product_metric, random_instance
from rlab.mesh import build_grid, flat_metric
from rlab.snapshots import write_verdicts_csv
from rlab.tensor import Geometry

# scalar orderings on a random instance
grid, m, u = random_instance(2, 24, seed=201)
geo = Geometry(m, u)    # one curvature evaluation for the three pairs
verdicts = [scalar_order(geo, p) for p in ("RL_vs_R", "R_vs_RWY", "R_eq_RWY_e^u")]
print("scalar orderings (left <= right after integration):")
for v in verdicts:
    print(f"  {v.pair:14s} weight={v.weight:6s} margin={v.margin:+.4e}  -> {v.verdict}")
print(f"  weighted divergence integral (exact telescoping): "
      f"{weighted_divergence_integral(m, u):+.1e}")

# the Lie-derivative integral identity: the printed normalization is off by
# a factor decided once by summation by parts on a tiny grid
g8 = build_grid("torus", 2, [8, 8], [2 * np.pi] * 2)
X8 = np.zeros((2,) + g8.shape)
X8[0] = np.sin(g8.coords()[0])
f = yano_oracle_factor(flat_metric(g8), X8)
print(f"\nLie-derivative identity: defect(factor 1) = {yano_defect(flat_metric(g8), X8, 1.0):+.3f}, "
      f"defect(factor 1/2) = {yano_defect(flat_metric(g8), X8, 0.5):+.1e}  "
      f"-> arbitrated factor {f}")

# Killing-restricted Ricci orderings on a curved product torus
g3 = build_grid("torus", 3, [16] * 3, [2 * np.pi] * 3)
m3 = product_metric(g3, [1.3,
                         lambda xs: (1.5 + 0.3 * np.sin(xs[2])) ** 2,
                         lambda xs: 1.0 + 0.2 * np.cos(xs[2])])
X = np.zeros((3,) + g3.shape)
X[0] = 1.0
rep = killing_report(m3, X)
print(f"\ncoordinate field on the product torus: killing={rep.is_killing}, "
      f"constant norm={rep.constant_norm} (|L_X g| = {rep.lie_max:.1e})")
xs = g3.coords()
u3 = 0.3 * np.sin(xs[0]) + 0.2 * np.cos(xs[2])
tw = tilde_weight(u3)
print(f"weight construction: c0 = {tw['c0']:.12f}, min u~ ln u~ = "
      f"{np.min(tw['u_tilde'] * np.log(tw['u_tilde'])):.6f} (>= 1)")
rows = []
for variant in ("L_vs_Ric", "Ric_vs_WY", "Ric_vs_WYhat"):
    for weight in ("volume", "e^f~"):
        v = ricci_order(m3, u3, X, variant, weight)
        rows.append(v)
        print(f"  {v.pair:18s} weight={v.weight:6s} margin={v.margin:+.4e}  -> {v.verdict}")
write_verdicts_csv("verdicts.csv", verdicts + rows)
print("wrote verdicts.csv")

# Hessian-pairing integral identities on a Killing field of varying norm
g2 = build_grid("torus", 2, [32, 32], [2 * np.pi] * 2)
m2 = product_metric(g2, [lambda xs: (1.4 + 0.3 * np.sin(xs[1])) ** 2, 1.0])
X2 = np.zeros((2,) + g2.shape)
X2[0] = 1.0
u2 = 0.4 * np.cos(g2.coords()[1]) + 0.3 * np.sin(g2.coords()[0])
d = lemma57_defect(m2, u2, X2)
print(f"\nHessian-pairing identities: general {d['general']:+.1e}, "
      f"killing forms {d['killing_a']:+.1e} / {d['killing_b']:+.1e}")
