"""Negative controls: deliberately broken inputs that must give nonzero residuals.

Every control runs on fixed inputs that do not depend on the seed, so its
outcome is the same in every run. A control passes only when its residual is
nonzero; a control that comes out zero means the check it guards can no
longer fail, and the run is marked incorrect.

* koszul_flip: the super-permutation built with the row parity in place of
  the column parity must break the Yang-Baxter equation;
* perturbed_table: the packaged action-formula table, rewritten at run time
  with one coefficient doubled, must break the T11 action;
* juxtaposition_flip: composite bilinear sums with the graded juxtaposition
  sign flipped must differ from the total Bethe vector and its dual.
"""

from __future__ import annotations

import contextlib
import json
from importlib import resources
from pathlib import Path

WORK_DIR = Path(__file__).resolve().parent.parent / ".bench_work"

# the coefficient that perturbed_table doubles: the first T11 term, which
# is the only one left at (a,b) = (0,0)
PERTURBED_ELEMENT = "T11"


def flipped_permutation(graded, sig):
    """P built with the wrong Koszul index: row parity instead of column parity."""
    acc = graded.GradedOperator(sig, 2)
    for i in range(1, 4):
        for j in range(1, 4):
            term = graded.koszul_tensor(graded.GradedOperator.unit(sig, i, j), graded.GradedOperator.unit(sig, j, i))
            acc = acc.add(term.scale(-1) if sig.par(i) else term)
    return acc


@contextlib.contextmanager
def koszul_flipped(graded):
    """Make graded.r_matrix use the flipped permutation while inside."""
    orig = graded.super_permutation
    graded.super_permutation = lambda sig: flipped_permutation(graded, sig)
    try:
        yield
    finally:
        graded.super_permutation = orig


def perturbed_table_path():
    """Write the packaged table with one coefficient doubled; return its path."""
    raw = json.loads(resources.files("superbethe").joinpath("data/action_formulas.json").read_text())
    term = raw[PERTURBED_ELEMENT][0]
    term["coefficient"] = "2*" + term["coefficient"]
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / "perturbed_action_formulas.json"
    path.write_text(json.dumps(raw, indent=1))
    return path


def run_shared(rec, sb):
    """The controls every workload runs; sb is the namespace of program modules."""
    rat = sb.rational.rat
    c = rat(1)
    for sig in (sb.graded.GL21, sb.graded.GL12):
        with koszul_flipped(sb.graded):
            rec.control(
                f"{sig.name} Yang-Baxter with flipped Koszul sign",
                lambda sig=sig: sb.graded.check_ybe(rat(3), rat(2), rat(1), sig, c),
            )

    table = sb.actions.load_formula_table(str(perturbed_table_path()))
    chain = sb.monodromy.ChainSpec(1, (rat(0),), (rat(2), rat(1), rat(-3)), sb.graded.GL21, c)
    rec.control(
        f"{PERTURBED_ELEMENT} action with a perturbed formula table",
        lambda: sb.actions.action_check(sb.monodromy.ChainModel(chain), PERTURBED_ELEMENT, (), (), rat(7, 2), table=table),
    )

    split = sb.composite.SplitChain(
        sb.monodromy.ChainSpec(1, (rat(0),), (rat(2), rat(1), rat(3)), sb.graded.GL21, c),
        sb.monodromy.ChainSpec(1, (rat(1, 3),), (rat(-1), rat(1), rat(5)), sb.graded.GL21, c),
    )
    # a = b = 2: the splits with one u and one v on each one-site part give
    # two odd partial vectors, the only terms the juxtaposition sign touches
    us, vs = (rat(3, 2), rat(-2, 7)), (rat(-5, 3), rat(11, 4))

    def ket_flipped():
        total = sb.composite.CompositeModel(split)
        lhs = sb.bethe.build_vector(total, us, vs)
        return lhs.sub(sb.composite.bilinear_sum(total.part1, total.part2, us, vs, part2_written_first=False))

    def bra_flipped():
        total = sb.composite.CompositeModel(split)
        lhs = sb.bethe.build_dual_vector(total, us, vs)
        rhs = sb.composite.bilinear_sum(
            total.part1,
            total.part2,
            us,
            vs,
            coeff=sb.composite.BRA_COEFF,
            builder=sb.bethe.build_dual_vector,
            dual=True,
            part1_written_first=False,
        )
        return lhs.sub(rhs)

    rec.control("bilinear factorization with flipped juxtaposition sign", ket_flipped)
    rec.control("dual bilinear factorization with flipped juxtaposition sign", bra_flipped)
