"""Dev fuzz: every rewrite rule preserves closed-diagram value in random contexts."""
import cmath
import math

import numpy as np

from quon2d.diagram import (
    BraidNeg, BraidPos, Cap, Cup, Dot, DotPair, Scattering,
)
from quon2d.fock import evaluate_closed_oracle
from quon2d.gaussian import evaluate_closed_fast
from quon2d.rewrite import (
    BraidTypeSwitch, CommuteDistantElements, DotAbsorbScattering,
    DotPassScattering, DotRelocateCapCup, DotThroughBraid, PairDotsToBraids,
    ReidemeisterI, ReidemeisterII, ReidemeisterIII, RewriteSite,
    ScatteringReduce, SpaceTimeDual, YangBaxter, apply_rule,
)
from tests.conftest import embed_pattern


def check(name, rng, pattern, width, rule, site_fn, trials=60):
    bad = 0
    for _ in range(trials):
        d, t, off = embed_pattern(rng, pattern, width)
        site = site_fn(t, off)
        d2 = apply_rule(d, rule, site)
        v1 = evaluate_closed_oracle(d) if d.max_width() <= 16 else evaluate_closed_fast(d)
        v2 = evaluate_closed_oracle(d2) if d2.max_width() <= 16 else evaluate_closed_fast(d2)
        if abs(v1 - v2) > 1e-9 * max(1.0, abs(v1)):
            bad += 1
            if bad == 1:
                print(f"  FIRST BAD {name}: {v1} vs {v2}  ratio {v2/v1 if abs(v1)>1e-12 else '?'}")
    print(f"{name}: {trials-bad}/{trials}")
    return bad


def main():
    rng = np.random.default_rng(42)
    total_bad = 0
    th = lambda: complex(rng.normal(), 0.3 * rng.normal())

    total_bad += check("dot_relocate_cap_L", rng, (Cap(0), Dot(0), Cup(2)), 2,
                       DotRelocateCapCup(), lambda t, o: RewriteSite.at(t + 1, t))
    total_bad += check("dot_relocate_cap_R", rng, (Cap(0), Dot(1), Cup(2)), 2,
                       DotRelocateCapCup(), lambda t, o: RewriteSite.at(t + 1, t))
    total_bad += check("dot_relocate_cup_L", rng, (Cap(2), Dot(0), Cup(0)), 2,
                       DotRelocateCapCup(), lambda t, o: RewriteSite.at(t + 1, t + 2))
    total_bad += check("dot_relocate_cup_R", rng, (Cap(2), Dot(1), Cup(0)), 2,
                       DotRelocateCapCup(), lambda t, o: RewriteSite.at(t + 1, t + 2))
    total_bad += check("r1_pos_right", rng, (Cap(1), BraidPos(0), Cup(1)), 2,
                       ReidemeisterI(1), lambda t, o: RewriteSite.at(t))
    total_bad += check("r1_pos_left", rng, (Cap(0), BraidPos(1), Cup(0)), 2,
                       ReidemeisterI(1), lambda t, o: RewriteSite.at(t))
    total_bad += check("r1_neg_right", rng, (Cap(1), BraidNeg(0), Cup(1)), 2,
                       ReidemeisterI(-1), lambda t, o: RewriteSite.at(t))
    total_bad += check("r2", rng, (BraidPos(0), BraidNeg(0)), 2,
                       ReidemeisterII(), lambda t, o: RewriteSite.at(t))
    total_bad += check("r3_pos", rng, (BraidPos(0), BraidPos(1), BraidPos(0)), 3,
                       ReidemeisterIII(), lambda t, o: RewriteSite.at(t))
    total_bad += check("r3_neg", rng, (BraidNeg(1), BraidNeg(0), BraidNeg(1)), 3,
                       ReidemeisterIII(), lambda t, o: RewriteSite.at(t))
    total_bad += check("dot_thru_braid_pos_j", rng, (Dot(0), BraidPos(0)), 2,
                       DotThroughBraid(), lambda t, o: RewriteSite.at(t))
    total_bad += check("dot_thru_braid_pos_j1", rng, (Dot(1), BraidPos(0)), 2,
                       DotThroughBraid(), lambda t, o: RewriteSite.at(t))
    total_bad += check("dot_thru_braid_neg_j", rng, (Dot(0), BraidNeg(0)), 2,
                       DotThroughBraid(), lambda t, o: RewriteSite.at(t))
    total_bad += check("braid_switch_pos", rng, (BraidPos(0),), 2,
                       BraidTypeSwitch(), lambda t, o: RewriteSite.at(t))
    total_bad += check("braid_switch_neg", rng, (BraidNeg(0),), 2,
                       BraidTypeSwitch(), lambda t, o: RewriteSite.at(t))
    for k, theta in (("0", 0.0), ("pi", math.pi), ("-pi/2", -math.pi / 2), ("pi/2", math.pi / 2)):
        total_bad += check(f"scatter_reduce_{k}", rng, (Scattering(0, theta),), 2,
                           ScatteringReduce(), lambda t, o: RewriteSite.at(t))
    total_bad += check("yang_baxter", rng,
                       (Scattering(0, 0.3), Scattering(1, 0.7), Scattering(0, 1.1)), 3,
                       YangBaxter(), lambda t, o: RewriteSite.at(t), trials=25)
    total_bad += check("spacetime", rng, (Scattering(0, 0.7 + 0.2j),), 2,
                       SpaceTimeDual(), lambda t, o: RewriteSite.at(t))
    total_bad += check("spacetime_h2v", rng, (Scattering(0, 0.9 - 0.1j, "horizontal"),), 2,
                       SpaceTimeDual(), lambda t, o: RewriteSite.at(t))
    total_bad += check("dot_pass_j", rng, (Dot(0), Scattering(0, 0.83)), 2,
                       DotPassScattering(), lambda t, o: RewriteSite.at(t))
    total_bad += check("dot_pass_j1", rng, (Dot(1), Scattering(0, -1.22 + 0.3j)), 2,
                       DotPassScattering(), lambda t, o: RewriteSite.at(t))
    total_bad += check("dot_absorb", rng, (DotPair(0, 1), Scattering(0, 0.45)), 2,
                       DotAbsorbScattering(), lambda t, o: RewriteSite.at(t))
    total_bad += check("commute", rng, (BraidPos(0), Scattering(2, 0.5)), 4,
                       CommuteDistantElements(), lambda t, o: RewriteSite.at(t))
    total_bad += check("commute_capcup", rng, (Cap(0), Cup(2)), 2,
                       CommuteDistantElements(), lambda t, o: RewriteSite.at(t))
    total_bad += check("pair_dots_to_braids", rng, (DotPair(0, 1),), 2,
                       PairDotsToBraids(), lambda t, o: RewriteSite.at(t))
    print("TOTAL BAD:", total_bad)


if __name__ == "__main__":
    main()
