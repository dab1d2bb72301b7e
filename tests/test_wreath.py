import functools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (atom_by_atom_form, bisect_least_difference, brute_compare,
                     brute_least_difference, confirm_verdict)

from wreathord.embed_verbal import SCoords, VerbalContext, get_context
from wreathord.groundwork import RATIONALS, IntCoords, Ordering
from wreathord.wreath import (
    Atom,
    BaseFunction,
    ConstructionViolation,
    FiberSteps,
    PointFn,
    RayStepFunction,
    StepFunction,
    ThresholdFn,
    WreathElement,
    WreathGroup,
    derived_commutator,
)
from wreathord.embed_rationals import (
    QC,
    W,
    alpha,
    alpha_commutator,
    beta_tilde,
    c_elem,
    g_word_element,
    phi,
    phi_element,
    phi_star,
    qc_point,
    random_g_word,
    random_qc_element,
    random_w_element,
    tau,
    w_point,
    z_elem,
)


def test_step_function_basics():
    f = StepFunction.make([(0, Fraction(-1, 2))])
    assert f.value(-1) == 0
    assert f.value(0) == Fraction(-1, 2)
    assert f.value(10**9) == Fraction(-1, 2)
    assert f.value(f.breaks[-1]) == Fraction(-1, 2)
    g = f.add(StepFunction.fold([(f, 0, -1)]))
    assert g.is_trivial
    shifted = StepFunction.fold([(f, 3, 1)])
    assert shifted.value(2) == 0
    assert shifted.value(3) == Fraction(-1, 2)
    assert f.least_difference(StepFunction.make([])).witness == 0


_STEP_VALUES = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(5, 7)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["step", "fiber"]),
       st.sampled_from(["equal", "trivial", "last", "any"]),
       st.dictionaries(st.integers(-8, 8), st.integers(0, 4), max_size=8),
       st.dictionaries(st.integers(-8, 8), st.integers(0, 4), max_size=8),
       st.integers(1, 4), st.booleans())
def test_merge_walk_least_difference_matches_a_bisection_per_break(kind, case, fc, gc, bump,
                                                                   swap):
    # the fiber-step forms take Q Wr C values: a fiber that is not Q
    if kind == "step":
        pool = _STEP_VALUES

        def make(changes):
            return StepFunction.make(changes)
    else:
        pool = [QC.identity(), tau(1), phi(2), c_elem(), QC.mul(tau(3), c_elem())]

        def make(changes):
            return FiberSteps.make(QC, changes)
    f = make([(b, pool[i]) for b, i in fc.items()])
    if case == "equal":
        g = make([(b, pool[i]) for b, i in fc.items()])
    elif case == "trivial":
        g = make([])
    elif case == "last":
        # the same changes but for the value from the last break on
        idx = [pool.index(v) if kind == "step" else
               next(i for i, p in enumerate(pool) if QC.equal(p, v)) for v in f.values]
        idx[-1:] = [(i + bump) % len(pool) for i in idx[-1:]]
        g = make([(b, pool[i]) for b, i in zip(f.breaks, idx)])
    else:
        g = make([(b, pool[i]) for b, i in gc.items()])
    if swap:
        f, g = g, f
    v = f.least_difference(g)
    assert v.witness == bisect_least_difference(f, g)
    assert g.least_difference(f).witness == bisect_least_difference(g, f)
    if case == "equal":
        assert v.is_equal
    if v.is_distinct:
        assert v.order is f.fiber.compare(f.value(v.witness), g.value(v.witness))


def test_w_mul_pointwise_example():
    x = tau(2) * tau(3)
    assert x.eval(0) == Fraction(-5, 6)
    assert x.eval(-1) == 0


def test_mul_identity_and_inverse():
    x = tau(4) * c_elem(2)
    assert QC.equal(x * QC.identity(), x)
    assert QC.is_identity(tau(5) * tau(5).inv())


def test_relations_via_commutators():
    for n in range(1, 21):
        assert QC.equal(tau(n).comm(c_elem()), phi(n))
    for m in (1, 2, 9):
        for n in (1, 5, 20):
            assert QC.is_identity(tau(m).comm(tau(n)))
    assert QC.equal(tau(3).conj(QC.identity()), tau(3))


def test_conj_comm_pow_identities_under_evaluation():
    rng = Random(5)
    for _ in range(50):
        x, y = random_qc_element(rng), random_qc_element(rng)
        conj = x.conj(y)
        expected = y.inv() * x * y
        assert QC.equal(conj, expected)
        assert QC.equal(x.comm(y), x.inv() * (y.inv() * (x * y)))
        assert QC.equal(x ** 3, x * (x * x))
        assert QC.equal(x ** -2, (x * x).inv())


def test_w_eval_alpha():
    a = alpha()
    assert QC.equal(a.eval(0), c_elem())
    assert QC.is_identity(a.eval(-1))
    assert QC.is_identity(a.eval(-5))
    assert QC.equal(a.eval(3), tau(3))
    assert QC.is_identity(W.identity().eval(12))


def test_commutator_window_values():
    # [alpha^(z^-2), alpha] carries phi_2 at z^0 and is trivial elsewhere
    comm = alpha_commutator(2)
    assert QC.equal(comm.eval(0), phi(2))
    for j in (-5, -2, -1, 1, 2, 7):
        assert QC.is_identity(comm.eval(j))


def test_support_min_difference_examples():
    v = QC.min_difference(tau(2), tau(3))
    assert v.is_distinct and v.witness == 0
    assert tau(2).eval(0) == Fraction(-1, 2)
    assert tau(3).eval(0) == Fraction(-1, 3)

    x = tau(2) * qc_point(Fraction(1, 7), at=-3)
    assert QC.min_difference(x, x).is_equal

    lhs = phi_element(Fraction(1, 2)) * phi_element(Fraction(1, 3))
    assert W.min_difference(lhs, phi_element(Fraction(5, 6))).is_equal

    with pytest.raises(ValueError):
        QC.min_difference(c_elem(1), c_elem(2))


def test_w_compare_examples():
    # the top dominates
    a = W.mul(z_elem(1), alpha())
    b = W.mul(z_elem(0), alpha())
    assert W.compare(a, b) is Ordering.GREATER
    assert W.compare(phi_element(Fraction(1, 3)), phi_element(Fraction(1, 2))) is Ordering.LESS
    x = alpha() * W.conj(alpha(), z_elem(-2))
    assert W.compare(x, x) is Ordering.EQUAL


def test_stepfun_canonicalize():
    prod = tau(2) * tau(3) ** 2
    sf = StepFunction.of_atoms(QC, prod.atoms)
    assert sf.value(-1) == 0
    assert sf.value(0) == Fraction(-7, 6)
    assert sf.value(50) == Fraction(-7, 6)
    assert StepFunction.of_atoms(QC, QC.identity().atoms).is_trivial
    assert StepFunction.of_atoms(QC, (tau(4) * tau(4).inv()).atoms).is_trivial


def test_stepfun_canonicalize_random_products():
    rng = Random(11)
    for _ in range(500):
        el = QC.element(0, random_qc_element(rng).atoms)
        sf = StepFunction.of_atoms(QC, el.atoms)
        again = StepFunction.of_atoms(QC, el.atoms)
        assert sf == again
        for j in range(-12, 13):
            assert sf.value(j) == QC.eval(el, j)


@st.composite
def qc_products(draw, max_atoms=60):
    """Atoms of a Q Wr C product: tau(n), phi(n) or a rational point, at
    shifts in [-20, 20] with exponents in [-3, 3]."""
    fn = st.one_of(
        st.integers(1, 6).map(lambda n: tau(n).atoms[0].fn),
        st.integers(1, 6).map(lambda n: phi(n).atoms[0].fn),
        st.fractions(min_value=-3, max_value=3, max_denominator=6)
        .filter(bool).map(lambda q: qc_point(q).atoms[0].fn),
    )
    atom = st.builds(Atom, fn, st.integers(-20, 20), st.integers(-3, 3))
    return draw(st.lists(atom, max_size=max_atoms))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_step_fold_matches_evaluation_and_ignores_order(data):
    atoms = data.draw(qc_products())
    el = QC.element(0, atoms)
    sf = QC.base_canonical(el)
    coords = {-10**6, 10**6}
    for b in sf.breaks:
        coords.update((b - 1, b))
    for j in coords:
        assert sf.value(j) == QC.eval(el, j), j
    # canonical: adjacent values differ (the first from 0), so the form
    # is the function
    assert all(u != v for u, v in zip((0,) + sf.values, sf.values))
    shuffled = QC.element(0, data.draw(st.permutations(atoms)))
    assert QC.base_canonical(shuffled) == sf


_NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_qc_order_is_the_value_order_at_the_least_difference(data):
    # compare reads the order off the two forms' jumps at the least
    # difference; the reference orders the values there, read off the atoms
    top = data.draw(st.integers(-3, 3))
    atoms = data.draw(qc_products(max_atoms=30))
    breaks = QC.base_canonical(QC.element(0, atoms)).breaks
    edit = data.draw(st.sampled_from(["random", "new break", "last break", "trivial"]))
    if edit == "random":
        more = data.draw(qc_products(max_atoms=30))
    elif edit == "trivial":
        atoms, more = [], atoms
    else:
        # one more point or threshold: at a coordinate x has no break, so
        # the forms differ at a break x lacks, or at x's last break
        shape = data.draw(st.sampled_from([QC.point, QC.threshold]))
        at = (breaks[-1] if edit == "last break" and breaks else
              data.draw(st.integers(-30, 30).filter(lambda s: s not in breaks)))
        more = atoms + [Atom(shape(data.draw(_NONZERO)).atoms[0].fn, at, 1)]
    x, y = QC.element(top, atoms), QC.element(top, more)
    if data.draw(st.booleans()):
        x, y = y, x
    read = data.draw(st.tuples(st.booleans(), st.booleans()))
    for el, r in zip((x, y), read):
        if r:
            QC.base_canonical(el).values
    got = QC.compare(x, y)
    assert tuple(QC.base_canonical(el)._values is not None for el in (x, y)) == read
    v = QC.min_difference(x, y)
    if v.is_equal:
        assert got is Ordering.EQUAL and QC.compare(y, x) is Ordering.EQUAL
    else:
        assert got is Ordering.of(QC.eval(x, v.witness), QC.eval(y, v.witness))
        assert QC.compare(y, x) is got.reversed() is not Ordering.EQUAL


def _assert_fold_is_the_sum(parts):
    """StepFunction.fold against a plain-Fraction sum at every coordinate
    of the parts' span; the result is canonical, with no zero jump and
    adjacent values distinct."""
    sf = StepFunction.fold(parts)
    cs = [b + shift for step, shift, _ in parts for b in step.breaks] or [0]
    for c in range(min(cs) - 1, max(cs) + 2):
        assert sf.value(c) == sum(e * step.value(c - k) for step, k, e in parts), c
    assert all(n for _, n, _ in sf.jumps)
    assert all(u != v for u, v in zip((0,) + sf.values, sf.values))
    assert all(type(v) is Fraction for v in sf.values)


# denominators up to 500, among them the pairwise coprime 499, 497 = 7 * 71,
# 495 = 3^2 * 5 * 11, 494 = 2 * 13 * 19 and 491
_FOLD_VALUES = st.builds(Fraction, st.integers(-500, 500),
                         st.sampled_from([1, 2, 3, 6, 491, 494, 495, 497, 499])
                         | st.integers(1, 500))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.dictionaries(st.integers(-6, 6), _FOLD_VALUES, max_size=4),
                          st.integers(-3, 3), st.integers(-3, 3)), max_size=8),
       st.lists(st.integers(0, 7), max_size=3))
def test_step_fold_matches_a_fraction_sum(raw, cancelled):
    # narrow shift and break ranges make shifted breaks collide; exponents
    # include 0; a part repeated with its exponent negated cancels to 0
    parts = [(StepFunction.make(changes.items()), k, e) for changes, k, e in raw]
    parts += [(parts[i][0], parts[i][1], -parts[i][2]) for i in cancelled if i < len(parts)]
    _assert_fold_is_the_sum(parts)


def test_a_300_part_step_fold_matches_a_fraction_sum():
    rng = Random(300)
    steps = [StepFunction.make((b, Fraction(rng.randint(-500, 500), rng.randint(1, 500)))
                               for b in rng.sample(range(-20, 20), rng.randint(1, 4)))
             for _ in range(40)]
    parts = [(rng.choice(steps), rng.randint(-30, 30), rng.randint(-3, 3)) for _ in range(300)]
    _assert_fold_is_the_sum(parts)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 6), st.integers(-3, 3)),
                max_size=60))
def test_beta_tilde_is_the_step_fold(factors):
    atoms = [Atom(tau(i).atoms[0].fn, k, n) for k, i, n in factors]
    assert beta_tilde(factors) == StepFunction.of_atoms(QC, atoms)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_ray_fold_matches_evaluation(data):
    ctx = get_context(data.draw(st.sampled_from(["[x1,x2]", "x1^2"])))
    sc, sg = ctx.scoords, ctx.sgroup
    fn = st.one_of(st.integers(1, 4).map(lambda n: ctx.chi(n).atoms[0].fn),
                   st.integers(1, 4).map(lambda n: ctx.psi(n).atoms[0].fn))
    shift = st.builds(
        lambda i, j, k: sc.mul(sc.witness_power(i),
                               sc.mul(sg.pow(sg.generator(1), j),
                                      sg.pow(sg.generator(sg.rank), k))),
        st.integers(-4, 4), st.integers(-2, 2), st.integers(-2, 2))
    atoms = data.draw(st.lists(st.builds(Atom, fn, shift, st.integers(-3, 3)),
                               max_size=12))
    el = ctx.QS.element(sc.identity(), atoms)
    rs = ctx.QS.base_canonical(el)
    for a in atoms:
        for d in (-1, 0, 1):
            s = sc.mul(sc.witness_power(d), a.shift)
            assert rs.value(s) == ctx.QS.eval(el, s)
    # canonical: distinct representatives sorted by sc.compare, each at
    # index 0 of its own ray, and each ray nonzero with distinct adjacent
    # values
    reps = [rep for rep, _ in rs.rays]
    assert all(sc.compare(r, s) is Ordering.LESS for r, s in zip(reps, reps[1:]))
    for rep, steps in rs.rays:
        assert not steps.is_trivial
        assert all(u != v for u, v in zip((0,) + steps.values, steps.values))
        assert sc.ray_decompose(rep) == (rep, 0)
    shuffled = ctx.QS.element(sc.identity(), data.draw(st.permutations(atoms)))
    assert ctx.QS.base_canonical(shuffled) == rs


def _s_grid(ctx, i_span, jk_span):
    """The coordinates a^i * x1^j * x_rank^k of S, |i| <= i_span and
    |j|, |k| <= jk_span."""
    sc, sg = ctx.scoords, ctx.sgroup
    x1, xr = sg.generator(1), sg.generator(sg.rank)
    return [sc.mul(sc.witness_power(i), sc.mul(sg.pow(x1, j), sg.pow(xr, k)))
            for i in range(-i_span, i_span + 1)
            for j in range(-jk_span, jk_span + 1) for k in range(-jk_span, jk_span + 1)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_qs_least_difference_matches_a_grid_scan(data):
    # y holds x's atoms in another order plus up to two more, so Equal
    # pairs occur; the witness must differ, and every scanned coordinate
    # below it must not
    ctx = get_context(data.draw(st.sampled_from(["[x1,x2]", "x1^2"])))
    QS, sc = ctx.QS, ctx.scoords
    fn = st.one_of(st.integers(1, 4).map(lambda n: ctx.chi(n).atoms[0].fn),
                   st.integers(1, 4).map(lambda n: ctx.psi(n).atoms[0].fn))
    atom = st.builds(Atom, fn, st.sampled_from(_s_grid(ctx, 3, 2)), st.integers(-2, 2))
    x_atoms = data.draw(st.lists(atom, min_size=1, max_size=5))
    y_atoms = data.draw(st.permutations(x_atoms)) + data.draw(st.lists(atom, max_size=2))
    top = sc.witness_power(data.draw(st.integers(-2, 2)))
    x, y = QS.element(top, x_atoms), QS.element(top, y_atoms)
    v = QS.min_difference(x, y)
    if v.is_distinct:
        vx, vy = QS.eval(x, v.witness), QS.eval(y, v.witness)
        assert vx != vy and QS.compare(x, y) is Ordering.of(vx, vy)
    else:
        assert QS.compare(x, y) is Ordering.EQUAL
    for s in _s_grid(ctx, 6, 3):
        if v.is_equal or sc.compare(s, v.witness) is Ordering.LESS:
            assert QS.eval(x, s) == QS.eval(y, s), sc.fmt(s)


def _qs_values(ctx):
    """Q Wr S elements: a witness-ray top and up to four chi/psi atoms."""
    sc, sg = ctx.scoords, ctx.sgroup
    fn = st.one_of(st.integers(1, 4).map(lambda n: ctx.chi(n).atoms[0].fn),
                   st.integers(1, 4).map(lambda n: ctx.psi(n).atoms[0].fn))
    shift = st.builds(lambda i, j: sc.mul(sc.witness_power(i), sg.pow(sg.generator(1), j)),
                      st.integers(-3, 3), st.integers(-2, 2))
    return st.builds(ctx.QS.element, st.integers(-2, 2).map(sc.witness_power),
                     st.lists(st.builds(Atom, fn, shift, st.integers(-2, 2)), max_size=4))


# the level W would be without its tail: fiber-step forms over the
# non-abelian Q Wr C
_QC_WR_Z = WreathGroup("QCwrZ", IntCoords("z"), QC, FiberSteps)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fiber_steps_fold_matches_evaluation(data):
    # T Wr C: pi and rho atoms of Q Wr S values; a tail-free Q Wr C Wr Z:
    # point and threshold atoms of Q Wr C values.  An atom of a trivial
    # value is no atom at all.
    if data.draw(st.booleans()):
        group, makers = _QC_WR_Z, [_QC_WR_Z.point, _QC_WR_Z.threshold]
        values = st.integers(0, 10**6).map(lambda seed: random_qc_element(Random(seed)))
    else:
        ctx = get_context(data.draw(st.sampled_from(["[x1,x2]", "x1^2"])))
        group, makers, values = ctx.TC, [ctx.pi, ctx.rho], _qs_values(ctx)
    draws = data.draw(st.lists(st.tuples(st.sampled_from(makers), values,
                                         st.integers(-4, 4), st.integers(-3, 3)),
                               max_size=8))
    atoms = [Atom(a.fn, shift, exp) for make, g, shift, exp in draws for a in make(g).atoms]
    el = group.element(0, atoms)
    form = group.base_canonical(el)
    assert isinstance(form, FiberSteps)
    # the form is read off the atoms' values, so it is also checked
    # against the product of the atoms' own forms
    reference = atom_by_atom_form(group, atoms)
    assert form == reference
    assert form.fmt() == reference.fmt()
    for a in atoms:
        for j in (a.shift - 1, a.shift, a.shift + 1):
            assert form.value(j) == group.eval(el, j)


def _pi_product(ctx, k: int, seed: int) -> WreathElement:
    """A T Wr C product of k pi(t)^±1 atoms over 20 random t, shifts in
    [-5k, 5k]."""
    rng = Random(seed)
    fns = []
    while len(fns) < 20:
        fns.extend(a.fn for a in ctx.pi(ctx.random_t_element(rng)).atoms)
    atoms = [Atom(rng.choice(fns), rng.randint(-5 * k, 5 * k), rng.choice([-1, 1]))
             for _ in range(k)]
    return ctx.TC.element(0, atoms)


def _refolds_to_key_a_pi_product(monkeypatch, ctx, k: int, seed: int) -> int:
    """Atoms passed to RayStepFunction.of_atoms while building the form
    of _pi_product."""
    el = _pi_product(ctx, k, seed)
    refolded = []
    of_atoms = RayStepFunction.of_atoms

    def counting(group, atoms):
        atoms = tuple(atoms)
        refolded.append(len(atoms))
        return of_atoms(group, atoms)

    with monkeypatch.context() as m:
        m.setattr(RayStepFunction, "of_atoms", staticmethod(counting))
        ctx.TC.base_canonical(el)
    return sum(refolded)


def test_a_fiber_step_form_refolds_atoms_subcubically(monkeypatch):
    # a running product of the atoms' own forms refolds about 9x the
    # atoms per doubling of k at this seed, so the bound tells it apart
    # from reading one product per break
    ctx = get_context("[x1,x2]")
    small = _refolds_to_key_a_pi_product(monkeypatch, ctx, 40, seed=5)
    large = _refolds_to_key_a_pi_product(monkeypatch, ctx, 80, seed=5)
    assert large <= 6 * small, (small, large)


def test_keying_a_pi_product_makes_subcubic_s_products(monkeypatch):
    # a break's value folds its factors from the right, so each product
    # shifts one new factor, not the running product's atoms: about 3.7x
    # the S products per doubling of k at this seed, against 6.3x for a
    # left fold, which grows towards 8x
    ctx = get_context("[x1,x2]")
    counts = []
    for k in (40, 80):
        el = _pi_product(ctx, k, seed=5)
        with monkeypatch.context() as m:
            calls = _counting(m, SCoords, ("mul",))
            hash(el)
        counts.append(calls["mul"])
    small, large = counts
    assert large <= 5 * small, (small, large)


def test_tail_symbol():
    comm = alpha_commutator(4)
    # zero nets, yet distinct from the identity: the window evaluation
    # is mandatory
    assert not W.is_identity(comm)

    prod = alpha() * W.conj(alpha(), z_elem(1))
    assert not W.is_identity(prod)
    assert QC.equal(prod.eval(0), c_elem())

    x = W.conj(alpha(), z_elem(-3)).inv() * W.conj(alpha(), z_elem(-3))
    assert W.is_identity(x)


def test_same_shift_thresholds_merge_into_one_atom():
    # tau, chi and pi are thresholds: two at the same shift are one
    # threshold atom, with the pointwise value of the unmerged product
    ctx = get_context("[x1,x2]")
    sc, x1 = ctx.scoords, ctx.sgroup.generator(1)
    ray = [sc.witness_power(i) for i in range(-3, 4)]
    cases = [
        (QC, tau(2), tau(3), range(-3, 4)),
        (ctx.QS, ctx.chi(1), ctx.chi(2), ray + [sc.mul(s, x1) for s in ray]),
        (ctx.TC, ctx.pi(ctx.chi(1)), ctx.pi(ctx.psi(2)), range(-3, 4)),
    ]
    for group, x, y, coords in cases:
        merged = group.mul(x, y)
        assert len(merged.atoms) == 1 and isinstance(merged.atoms[0].fn, ThresholdFn)
        unmerged = WreathElement(group, group.coords.identity(), x.atoms + y.atoms)
        for s in coords:
            assert group.eval(merged, s) == group.eval(unmerged, s)
        assert group.equal(merged, unmerged)
    assert QC.eval(QC.mul(tau(2), tau(3)), 0) == Fraction(-5, 6)
    assert ctx.QS.eval(ctx.QS.mul(ctx.chi(1), ctx.chi(2)), sc.identity()) == Fraction(3, 2)


def test_semidirect_product_law():
    # 500 pairs, 50 coordinates each: evaluation of a product must obey
    # (x*y)(b) = x(b * y.top^-1) * y(b)
    rng = Random(12)
    for _ in range(350):
        x, y = random_qc_element(rng), random_qc_element(rng)
        z = x * y
        for j in range(-25, 25):
            lhs = z.eval(j)
            rhs = x.eval(j - y.top) + y.eval(j)
            assert lhs == rhs
    for _ in range(150):
        x, y = random_w_element(rng), random_w_element(rng)
        z = x * y
        for j in range(-25, 25):
            lhs = z.eval(j)
            rhs = QC.mul(x.eval(j - y.top), y.eval(j))
            assert QC.equal(lhs, rhs)


def test_order_agrees_with_brute_force():
    rng = Random(13)
    for _ in range(150):
        x, y = random_qc_element(rng), random_qc_element(rng)
        assert QC.compare(x, y) is brute_compare(x, y)
    for _ in range(80):
        x, y = random_w_element(rng), random_w_element(rng)
        assert W.compare(x, y) is brute_compare(x, y)


@pytest.mark.parametrize("family", ["[x1,x2]", "x1^2"])
def test_verbal_order_agrees_with_brute_force(family):
    # T Wr C orders its fiber-step forms' values at their least difference,
    # D Wr Z the value of x * y^-1 there against the identity; the
    # reference orders the values at the least scanned difference
    rng = Random(15)
    ctx = get_context(family)
    TC, DZ = ctx.TC, ctx.DZ
    for _ in range(60):
        x, y = ctx.random_d_element(rng, max_len=4), ctx.random_d_element(rng, max_len=4)
        y = TC.element(x.top, y.atoms)
        assert TC.compare(x, y) is brute_compare(x, y)
    for _ in range(40):
        x, y = (g_word_element(random_g_word(rng, max_len=4, gen="omega"), ctx.omega())
                for _ in range(2))
        y = DZ.element(x.top, y.atoms)
        assert DZ.compare(x, y) is brute_compare(x, y)


def test_verdicts_confirmed_by_window_scan():
    rng = Random(14)
    for _ in range(120):
        x, y = random_qc_element(rng), random_qc_element(rng)
        y = QC.element(x.top, y.atoms)  # force equal tops
        assert confirm_verdict(x, y, QC.min_difference(x, y))
    for _ in range(80):
        x, y = random_w_element(rng), random_w_element(rng)
        y = W.element(x.top, y.atoms)
        assert confirm_verdict(x, y, W.min_difference(x, y))


def test_first_copy_order_restriction():
    # point rationals in the first fiber copy order exactly as rationals
    for a1, a2 in ((Fraction(-1, 2), Fraction(1, 3)), (Fraction(2, 7), Fraction(1, 2))):
        assert QC.compare(qc_point(a1), qc_point(a2)) is Ordering.LESS
        assert W.compare(w_point(qc_point(a1)), w_point(qc_point(a2))) is Ordering.LESS


def test_far_point_pairs_are_decided_exactly():
    # a commuting point far beyond the alpha shifts is decided exactly:
    # with zero nets the alpha criterion evaluates only the shift and
    # finite-atom coordinates, however far apart they are
    far = 25_001
    p = w_point(qc_point(Fraction(1, 3)), at=far)
    x = alpha() * p
    y = p * alpha()
    assert W.min_difference(x, y).is_equal
    assert W.compare(x, y) is Ordering.EQUAL
    # with a noncommuting far point the same shape is decidably distinct
    q = w_point(c_elem(), at=far)
    x2, y2 = alpha() * q, q * alpha()
    v2 = W.min_difference(x2, y2)
    assert v2.is_distinct and v2.witness == far


def test_alpha_tail_witness_past_a_root():
    # alpha^4 * alpha[z^3]^-1 with points cancelling it on z^0..z^3: from
    # z^4 on the value is tau-shaped with height -(4/j - 1/(j-3)), which
    # vanishes at j = 4, so the least difference is z^5, the second
    # integer after the last shift (two nonzero nets are active there)
    a = alpha().atoms[0].fn
    fixes = [c_elem(-4), tau(1) ** -4, tau(2) ** -4, c_elem() * tau(3) ** -4]
    x = W.element(0, [Atom(a, 0, 4), Atom(a, 3, -1)]
                  + [Atom(PointFn(f, QC, W.coords), j, 1) for j, f in enumerate(fixes)])
    assert all(QC.is_identity(x.eval(j)) for j in range(-3, 5))
    v = W.min_difference(x, W.identity())
    assert v.is_distinct and v.witness == 5
    assert W.compare(x, W.identity()) is Ordering.LESS


def test_omega_tail_witness_past_a_cancelled_power():
    # omega * point(c^-1)[z^1] is the identity at z^1 = z^0 * 2^0, so the
    # least difference is the next power, z^2, where d_1 = pi(psi_1^-1)
    ctx = get_context("[x1,x2]")
    DZ, TC = ctx.DZ, ctx.TC
    x = DZ.element(0, [ctx.omega().atoms[0], Atom(PointFn(ctx.c_elem(-1), TC, DZ.coords), 1, 1)])
    assert TC.is_identity(x.eval(1))
    v = DZ.min_difference(x, DZ.identity())
    assert v.is_distinct and v.witness == 2
    assert DZ.compare(x, DZ.identity()) is Ordering.LESS


@functools.cache
def _tail_strategies(tail_fn, span):
    """The strategies of tail_pairs that depend on no drawn value, built
    once per tail atom and span: hypothesis validates a strategy object
    on its first draw, which cost more than the draws themselves."""
    coord = st.integers(-span, span)
    tail = st.builds(lambda k, e: Atom(tail_fn, k, e), coord, st.sampled_from([-2, -1, 1, 2]))
    return (st.lists(tail, min_size=1, max_size=4), st.lists(tail, max_size=4), coord,
            st.booleans(), st.integers(-2, 2), st.integers(-3, 3))


@st.composite
def tail_pairs(draw, group, tail_fn, span, point_values):
    """Two elements of a tail-criterion level with one top: shifted
    powers of the tail atom at shifts in [-span, span], plus point atoms
    there or within 2 of a tail shift.  Half the time y reuses x's tail
    atoms in another order, so the tail exponents of x * y^-1 net to
    zero at every shift."""
    x_list, y_list, coord, coin, offset, tops = _tail_strategies(tail_fn, span)
    x_tails = draw(x_list)
    if draw(coin):
        y_tails = x_tails
    else:
        y_tails = draw(y_list)
    near = st.builds(lambda a, d: a.shift + d, st.sampled_from(x_tails + y_tails), offset)
    point = st.builds(lambda k, v: Atom(PointFn(v, group.fiber, group.coords), k, 1),
                      st.one_of(coord, near), st.sampled_from(point_values))
    top = draw(tops)

    def element(tails):
        points = draw(st.lists(point, max_size=3))
        return group.element(top, draw(st.permutations(tails + points)))

    return element(x_tails), element(y_tails)


def assert_least_difference(x, y):
    # the tiers must find the least difference itself, not just some
    # coordinate where x and y differ.  Below every atom both are the
    # identity, so a Distinct witness is checked by a brute scan from
    # there up to it; an Equal verdict by a scan of 40 on either side of
    # every atom coordinate.
    group = x.group
    v = group.min_difference(x, y)
    shifts = {a.shift for el in (x, y) for a in el.atoms}

    def differs(j):
        return group.eval(x, j) != group.eval(y, j)

    if v.is_equal:
        bad = [j for k in shifts for j in range(k - 40, k + 41) if differs(j)]
        assert not bad, (v, min(bad))
    else:
        least = next((j for j in range(min(shifts) - 1, v.witness + 1) if differs(j)), None)
        assert v.is_distinct and v.witness == least, (v, least)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_alpha_tail_criterion_matches_brute_force(data):
    points = [c_elem(), c_elem(-1), tau(1), tau(3), qc_point(Fraction(1, 2)),
              qc_point(Fraction(-2, 3), at=1)]
    # one pair in eight has shifts up to 2*10^4 apart: their brute scans
    # up to the witness cost about 90 us a coordinate
    span = 10_000 if data.draw(st.integers(0, 7)) == 0 else 12
    x, y = data.draw(tail_pairs(W, alpha().atoms[0].fn, span, points))
    assert_least_difference(x, y)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_omega_tail_criterion_matches_brute_force(data):
    ctx = get_context("[x1,x2]")
    points = [ctx.TC.top_element(1), ctx.TC.top_element(-1),
              ctx.enumerate_D(1), ctx.enumerate_D(2), ctx.enumerate_D(3)]
    span = 10_000 if data.draw(st.booleans()) else 8
    x, y = data.draw(tail_pairs(ctx.DZ, ctx.omega().atoms[0].fn, span, points))
    assert_least_difference(x, y)


def test_groups_satisfy_the_ordered_group_contract():
    from wreathord.groundwork import OrderedGroup
    from wreathord.nilpotent import Nil2Group
    ctx = get_context("[x1,x2]")
    for group in (QC, W, ctx.QS, ctx.TC, ctx.DZ, RATIONALS, Nil2Group(2)):
        assert isinstance(group, OrderedGroup)
    assert [n for n in dir(OrderedGroup) if not n.startswith("_")] == [
        "compare", "identity", "inv", "mul"]


def test_derived_commutator_shape():
    rng = Random(15)
    xs = [random_qc_element(rng) for _ in range(2)]
    assert QC.equal(derived_commutator(QC, xs), QC.comm(xs[0], xs[1]))
    with pytest.raises(ValueError):
        derived_commutator(QC, [c_elem(), c_elem(), c_elem()])


def test_fmt_strings_of_every_level():
    ctx = get_context("[x1,x2]")
    QS, TC, DZ = ctx.QS, ctx.TC, ctx.DZ
    cases = [
        (QC.mul(QC.mul(tau(2), c_elem(3)), phi(5)),
         "c^3 * {i<0: 0, 0<=i<1: 1/5, 1<=i<3: 0, i>=3: -1/2}"),
        (W.mul(W.mul(z_elem(2), alpha()), W.pow(w_point(qc_point(Fraction(-1, 3)), at=-1), 2)),
         "z^2 * alpha * point({i<0: 0, 0<=i<1: -1/3, i>=1: 0})[z^-1]^2"),
        (QS.mul(QS.mul(ctx.chi(2), ctx.a_elem()), QS.inv(ctx.psi(3))),
         "[x1,x2] * {ray(1): {i<0: 0, 0<=i<1: -1/3, i>=1: 1/2}}"),
        (TC.mul(TC.mul(ctx.pi(ctx.chi(1)), ctx.c_elem(2)), ctx.rho(ctx.psi(2))),
         "c^2 * {i<0: {0}, 0<=i<1: {ray(1): {i<0: 0, 0<=i<1: 1/2, i>=1: 0}}, "
         "1<=i<2: {0}, i>=2: {ray(1): {i<0: 0, i>=0: 1}}}"),
        (DZ.mul(DZ.mul(ctx.z_elem(-1), DZ.pow(ctx.omega(), 2)),
                DZ.conj(ctx.omega(), ctx.z_elem(3))),
         "z^-1 * omega^2 * omega[z^3]"),
    ]
    for el, text in cases:
        assert el.group.fmt(el) == text


def _level_pool(name):
    """(group, generators, relators) of one level; every relator is the
    identity although its formal product is not empty."""
    if name == "QC":
        return (QC, [tau(2), tau(3), phi(2), c_elem()],
                [QC.comm(tau(2), tau(3)), QC.comm(phi(3), tau(5))])
    if name == "W":
        return (W, [alpha(), z_elem(), w_point(c_elem()), w_point(qc_point(Fraction(1, 3)), at=2)],
                [W.comm(alpha(), w_point(qc_point(Fraction(2, 5)), at=3)),
                 W.comm(alpha(), w_point(tau(4), at=-2))])
    ctx = get_context("[x1,x2]")
    if name == "QS":
        return (ctx.QS, [ctx.chi(1), ctx.chi(2), ctx.psi(1), ctx.a_elem(),
                         ctx.s_top(ctx.sgroup.generator(1))],
                [ctx.QS.comm(ctx.chi(1), ctx.psi(2)), ctx.QS.comm(ctx.chi(2), ctx.psi(1))])
    if name == "TC":
        return (ctx.TC, [ctx.pi(ctx.chi(1)), ctx.pi(ctx.chi(2)), ctx.rho(ctx.psi(1)),
                         ctx.c_elem(), ctx.pi(ctx.a_elem())],
                [ctx.TC.comm(ctx.pi(ctx.chi(1)), ctx.TC.conj(ctx.pi(ctx.psi(2)), ctx.c_elem())),
                 ctx.TC.comm(ctx.rho(ctx.chi(1)), ctx.pi(ctx.psi(1)))])
    DZ = ctx.DZ
    return (DZ, [ctx.omega(), ctx.z_elem(), DZ.point(ctx.c_elem()),
                 DZ.point(ctx.pi(ctx.chi(1)), at=2)],
            [DZ.comm(ctx.omega(), DZ.point(ctx.c_elem(), at=3)),
             DZ.comm(ctx.omega(), DZ.point(ctx.rho(ctx.psi(1)), at=-1))])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["QC", "W", "QS", "TC", "DZ"]), st.data())
def test_equality_routes_agree_on_every_level(name, data):
    # equal, ==, an Equal least difference and x * y^-1 being the identity
    # are four routes to one fact, and equal elements of a form level hash
    # equally; half the pairs differ by a relator, so Equal pairs with
    # different formal products occur
    group, gens, relators = _level_pool(name)
    letter = st.tuples(st.sampled_from(gens), st.sampled_from([-2, -1, 1, 2]))

    def word(letters):
        out = group.identity()
        for g, e in letters:
            out = group.mul(out, group.pow(g, e))
        return out

    x = word(data.draw(st.lists(letter, max_size=5)))
    if data.draw(st.booleans()):
        r = group.conj(data.draw(st.sampled_from(relators)), word(data.draw(st.lists(letter, max_size=2))))
        y = group.mul(x, r) if data.draw(st.booleans()) else group.mul(r, x)
    else:
        y = word(data.draw(st.lists(letter, max_size=5)))
        y = group.mul(group.top_element(group.coords.mul(x.top, group.coords.inv(y.top))), y)
    same = group.equal(x, y)
    verdict = group.min_difference(x, y)
    assert verdict.is_equal is same
    assert group.is_identity(group.mul(x, group.inv(y))) is same
    if name != "QS":
        # on W and D Wr Z the routes above share one criterion, so a scan
        # of the values over a window that covers the witness checks it
        window = 16 if same else max(16, abs(verdict.witness))
        assert brute_least_difference(x, y, window) == (None if same else verdict.witness)
    assert (x == y) is same and (x != y) is not same
    if group.tail_kind is None:
        assert not same or hash(x) == hash(y)
    else:
        with pytest.raises(TypeError, match="keeps no forms"):
            hash(x)
    # == is per group: across two levels it is False, where equal raises
    other = (QC if group is not QC else W).identity()
    assert (group.identity() == other) is False and (x == other) is False
    with pytest.raises(ValueError):
        group.equal(group.identity(), other)


def test_tail_levels_build_no_canonical_forms(monkeypatch):
    # W and D Wr Z decide every pair by the tail criterion on x * y^-1;
    # each of these once built one or two fiber-step forms there, for a
    # point atom among its arguments, and used none of them
    ctx = get_context("[x1,x2]")
    p, q = phi_element(Fraction(2, 9)), phi_element(Fraction(-1, 4))
    raw, point = alpha_commutator(7), phi_element(Fraction(1, 7))
    e, f = ctx.embed(Fraction(3, 2)), ctx.embed(Fraction(-1, 3))
    fresh = VerbalContext("[x1,x2]")
    built = []
    of_atoms = FiberSteps.of_atoms

    def counting(group, atoms):
        built.append(group.name.partition("[")[0])
        return of_atoms(group, atoms)

    monkeypatch.setattr(FiberSteps, "of_atoms", staticmethod(counting))
    for op in (lambda: W.compare(p, q), lambda: W.compare(raw, point),
               lambda: ctx.DZ.compare(e, f), lambda: fresh.omega_commutator(6, 2),
               lambda: phi_star.__wrapped__(11)):
        built.clear()
        op()
        assert built.count("W") == built.count("DwrZ") == 0, built


def test_tail_level_compare_evaluates_neither_side(monkeypatch):
    # the tail criterion has read x * y^-1 at the least difference, and the
    # order of that value and the identity is the order of x and y there
    ctx = get_context("[x1,x2]")
    DZ = ctx.DZ
    pairs = [(phi_element(Fraction(2, 9)), phi_element(Fraction(-1, 4))),
             (alpha(), W.mul(alpha(), w_point(tau(3), at=2))),
             (ctx.embed(Fraction(3, 2)), ctx.embed(Fraction(-1, 3))),
             (ctx.omega(), DZ.mul(ctx.omega(), DZ.point(ctx.c_elem(), at=3)))]
    calls = _counting(monkeypatch, WreathGroup, ("eval",))
    orders = [x.group.compare(a, b) for x, y in pairs for a, b in ((x, y), (y, x))]
    assert calls["eval"] == 0
    monkeypatch.undo()
    assert orders == [brute_compare(a, b) for x, y in pairs for a, b in ((x, y), (y, x))]
    assert set(orders) == {Ordering.LESS, Ordering.GREATER}


def test_eval_reads_atoms_where_a_form_is_cached(monkeypatch):
    x = QC.mul(tau(2), QC.conj(phi(3), c_elem(-1)))
    QC.base_canonical(x)

    def refuse(self, i):
        raise AssertionError("eval read the form")

    monkeypatch.setattr(StepFunction, "value", refuse)
    assert [QC.eval(x, j) for j in (-2, -1, 0)] == [0, Fraction(1, 3), Fraction(-1, 2)]


def test_tail_equality_and_identity_order_nothing(monkeypatch):
    # equal and is_identity ask the tail route only whether it found a
    # non-identity candidate; min_difference alone orders the value there
    ctx = get_context("[x1,x2]")
    DZ = ctx.DZ
    w_pairs = [(alpha_commutator(4), W.identity()),
               (alpha(), W.mul(alpha(), w_point(tau(3), at=2))),
               (phi_element(Fraction(2, 9)), phi_element(Fraction(-1, 4)))]
    dz_pairs = [(ctx.embed(Fraction(3, 2)), ctx.embed(Fraction(-1, 3))),
                (ctx.omega(), DZ.mul(ctx.omega(), DZ.point(ctx.c_elem(), at=3)))]

    def refuse(*args):
        raise AssertionError("ordered a value")

    for group in (W, DZ):
        monkeypatch.setattr(group, "min_difference", refuse)
        monkeypatch.setattr(group.fiber, "compare", refuse)
    for group, pairs in ((W, w_pairs), (DZ, dz_pairs)):
        for x, y in pairs:
            assert not group.equal(x, y) and not group.equal(y, x)
            assert not group.is_identity(x)


class _Opaque(BaseFunction):
    """1 from coordinate 0 on, with no canonical form and no tail criterion."""

    name = "opaque"

    def value(self, rel):
        return Fraction(1) if rel >= 0 else Fraction(0)


def test_level_without_exact_route_raises_type_error():
    steps = WreathGroup("opaque-steps", IntCoords("c"), RATIONALS, StepFunction)
    x = steps.element(0, [Atom(_Opaque(), 0, 1)])
    with pytest.raises(TypeError, match="opaque"):
        steps.equal(x, steps.identity())
    fiber_steps = WreathGroup("opaque-fiber-steps", IntCoords("c"), RATIONALS, FiberSteps)
    v = fiber_steps.element(0, [Atom(_Opaque(), 0, 1)])
    with pytest.raises(TypeError, match="opaque"):
        fiber_steps.equal(v, fiber_steps.identity())
    tail = WreathGroup("opaque-tail", IntCoords("z"), QC, tail_kind="alpha")
    y = tail.element(0, [alpha().atoms[0], Atom(_Opaque(), 1, 1)])
    with pytest.raises(TypeError, match="opaque"):
        tail.min_difference(y, tail.identity())
    with pytest.raises(TypeError, match="opaque"):
        tail.is_identity(y)


# -- one-pass products against the generic mul route --------------------------

def _level_elements(level: str, rng: Random):
    """(group, random element, random one-atom base element) at a level."""
    ctx = get_context("[x1,x2]")
    if level == "qc":
        group, x = QC, random_qc_element(rng)
    elif level == "w":
        group, x = W, random_w_element(rng)
    elif level == "qs":
        group, x = ctx.QS, ctx.random_t_element(rng, max_len=4)
    elif level == "tc":
        group, x = ctx.TC, ctx.random_d_element(rng, max_len=3)
    else:
        group = ctx.DZ
        x = group.mul(g_word_element(random_g_word(rng, max_len=4, gen="omega"), ctx.omega()),
                      group.point(ctx.random_d_element(rng, max_len=2), at=rng.randint(-3, 3)))
    a = rng.choice(x.atoms) if x.atoms else None
    one = group.atom_element(a.fn, a.shift, a.exp) if a else group.identity()
    return group, x, one


def _same_element(group, fast, generic) -> None:
    assert fast.top == generic.top and fast.atoms == generic.atoms
    assert group.equal(fast, generic)
    assert group.fmt(fast) == group.fmt(generic)


def _top_coord(level: str, k: int):
    if level == "qs":
        return get_context("[x1,x2]").scoords.witness_power(k)
    return k


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["qc", "w", "qs", "tc", "dz"]), st.integers(0, 10**9),
       st.integers(0, 5), st.integers(-4, 4), st.integers(-5, 5))
def test_one_pass_products_match_the_mul_route(level, seed, count, k, n):
    rng = Random(seed)
    drawn = [_level_elements(level, rng) for _ in range(max(count, 1))]
    group = drawn[0][0]
    xs = [x for _, x, _ in drawn][:count]
    generic = functools.reduce(group.mul, xs, group.identity())
    _same_element(group, group.product(xs), generic)
    # conjugation by a top alone
    x, one = drawn[0][1], drawn[0][2]
    top = group.top_element(_top_coord(level, k))
    _same_element(group, group.conj(x, top), group.mul(group.mul(group.inv(top), x), top))
    # a power of a one-atom base element
    base = one if n >= 0 else group.inv(one)
    generic = functools.reduce(group.mul, [base] * abs(n), group.identity())
    _same_element(group, group.pow(one, n), generic)


def test_atoms_are_slotted_values():
    fn = tau(3).atoms[0].fn
    a = Atom(fn, 2, -1)
    assert a == Atom(fn, 2, -1) and hash(a) == hash(Atom(fn, 2, -1))
    assert a != Atom(fn, 2, 1) and a != Atom(fn, 3, -1) and a != Atom(phi(3).atoms[0].fn, 2, -1)
    assert a != (fn, 2, -1)
    assert len({a, Atom(fn, 2, -1)}) == 1
    assert not hasattr(a, "__dict__")
    assert repr(a) == f"Atom(fn={fn!r}, shift=2, exp=-1)"
    # two functions built apart are equal by value
    p, q = QC.point(Fraction(1, 2)).atoms[0], QC.point(Fraction(1, 2)).atoms[0]
    assert p.fn is not q.fn and p == q and hash(p) == hash(q)


def test_mul_with_an_atomless_side_matches_the_product():
    rng = Random(17)
    for group, sample in ((QC, random_qc_element), (W, random_w_element)):
        for _ in range(100):
            x, t = sample(rng), group.top_element(rng.randint(-4, 4))
            for pair in ((t, x), (x, t), (group.identity(), x), (x, group.identity())):
                _same_element(group, group.mul(*pair), group.product(pair))
            assert group.mul(t, x).atoms is x.atoms


def test_mul_across_groups_raises():
    pairs = [(tau(2), alpha()), (c_elem(), z_elem()), (QC.identity(), alpha()),
             (tau(2), W.identity()), (c_elem(), W.identity())]
    for x, y in pairs:
        for group in (QC, W):
            with pytest.raises(ValueError):
                group.mul(x, y)
            with pytest.raises(ValueError):
                group.mul(y, x)


def _shifted_power_product(terms: int) -> str:
    """A k-term Q Wr C product of shifted tau powers, as the benchmark's
    fold queries write it."""
    rng = Random(terms)
    return "(* " + " ".join(
        f"(pow shift(tau({rng.randint(1, 500)}),{rng.randint(-5000, 5000)}) "
        f"{rng.choice([-3, -2, -1, 1, 2, 3])})" for _ in range(terms)) + ")"


def _counting(monkeypatch, owner, names):
    """A dict that counts, from now on, the calls of each named method of owner."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _orig=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def _calls_while_building(monkeypatch, names, terms):
    """How often each named WreathGroup method runs while build_element
    builds ``_shifted_power_product(terms)``, at each term count."""
    from wreathord.exprs import build_element, parse_expr

    calls = _counting(monkeypatch, WreathGroup, names)
    counts = []
    for k in terms:
        tree = parse_expr(_shifted_power_product(k))
        calls.update(dict.fromkeys(names, 0))
        build_element(tree)
        counts.append(tuple(calls[name] for name in names))
    return counts


def test_building_a_product_costs_no_mul_per_term(monkeypatch):
    (a,), (b,) = _calls_while_building(monkeypatch, ("mul",), (100, 300))
    assert a == b <= 2


def test_a_shifted_power_is_built_as_one_atom(monkeypatch):
    # (pow shift(tau(i),s) e) is one Atom: no conj by the shift's top and no
    # pow of a one-atom element per term, and the product reduces them once
    counts = _calls_while_building(monkeypatch, ("conj", "pow"), (150, 300))
    assert counts == [(0, 0), (0, 0)]


def test_comparing_unequal_products_sums_no_values(monkeypatch):
    # the two forms agree below their least difference, so compare reads the
    # order off the jumps there and builds no Fraction per break: at most
    # one, the 0 that phi(7)'s ray form returns to, made on its first use
    from wreathord.exprs import build_element, parse_expr

    made = _counting(monkeypatch, Fraction, ("__new__",))
    counts = []
    for k in (150, 300):
        text = _shifted_power_product(k)
        # one more point atom, as in the benchmark's unequal fold queries
        x, y = (build_element(parse_expr(t))[1] for t in (text, text[:-1] + " shift(phi(7),13))"))
        made["__new__"] = 0
        assert QC.compare(x, y) is Ordering.LESS and QC.compare(y, x) is Ordering.GREATER
        counts.append(made["__new__"])
        assert QC.base_canonical(x)._values is None and QC.base_canonical(y)._values is None
    assert max(counts) <= 1, counts


# -- certificates: checked when made, powered pointwise -------------------------

def test_certified_raises_on_a_wrong_value():
    raw = alpha_commutator(3)
    assert W.equal(W.certified(raw, phi(3)), phi_star(3))
    assert W.equal(phi_star(3), w_point(phi(3)))
    for wrong in (phi(4), QC.identity(), QC.pow(phi(3), 2)):
        with pytest.raises(ConstructionViolation):
            W.certified(raw, wrong)
    with pytest.raises(ConstructionViolation):
        W.certified(W.mul(raw, z_elem()), phi(3))
    ctx = get_context("[x1,x2]")
    TC, DZ = ctx.TC, ctx.DZ
    raw = DZ.comm(DZ.conj(ctx.omega(), ctx.z_elem(-2)), DZ.conj(ctx.omega(), ctx.z_elem(-1)))
    right = TC.comm(ctx.enumerate_D(1), ctx.enumerate_D(0))
    assert DZ.equal(DZ.certified(raw, right), ctx.omega_commutator(1, 0))
    for wrong in (TC.identity(), TC.inv(right), TC.comm(ctx.enumerate_D(3), ctx.enumerate_D(0))):
        with pytest.raises(ConstructionViolation):
            DZ.certified(raw, wrong)


def _certified_pool():
    ctx = get_context("[x1,x2]")
    DZ = ctx.DZ
    w = [phi_star(1), phi_star(4), W.mul(phi_star(2), phi_star(3)),
         W.mul(phi_star(2), w_point(qc_point(Fraction(1, 2)), at=3)),
         W.conj(phi_star(3), z_elem(2))]
    dz = [ctx.omega_commutator(1, 0), ctx.omega_commutator(2, 5),
          DZ.mul(ctx.omega_commutator(3, 0), ctx.omega_commutator(1, 0)),
          DZ.mul(ctx.omega_commutator(1, 2), DZ.point(ctx.enumerate_D(4), at=-2))]
    return [(W, x) for x in w] + [(DZ, x) for x in dz]


def test_powers_of_certified_elements_match_the_mul_fold():
    for group, x in _certified_pool():
        # a certificate is point atoms, so its powers keep its atoms apart
        assert x.top == 0 and all(type(a.fn) is PointFn for a in x.atoms)
        assert not group.is_identity(x)
        for n in range(-5, 6):
            base = x if n >= 0 else group.inv(x)
            generic = functools.reduce(group.mul, [base] * abs(n), group.identity())
            _same_element(group, group.pow(x, n), generic)
        assert group.pow(x, 0) is group.identity()


def test_phi_element_powers_its_certificate_without_multiplying_it(monkeypatch):
    phi_star(1013)
    calls = []
    mul = WreathGroup.mul
    monkeypatch.setattr(WreathGroup, "mul", lambda self, x, y: calls.append(1) or mul(self, x, y))
    el = phi_element(Fraction(5, 1013))
    assert calls == []
    assert QC.equal(el.eval(0), QC.pow(phi(1013), 5))


def test_an_embedded_rational_is_one_point_atom():
    # m/n is held as the point atom of its denominator with exponent m,
    # not as the 4m tail atoms of its word
    q = Fraction(200000, 3)
    el = phi_element(q)
    assert len(el.atoms) == 1 and el.atoms[0].exp == q.numerator
    assert QC.equal(el.eval(0), QC.pow(phi(3), q.numerator))
    assert QC.is_identity(el.eval(1)) and QC.is_identity(el.eval(-1))
    ctx = get_context("[x1,x2]")
    el = ctx.embed(q)
    assert len(el.atoms) == 1 and el.atoms[0].exp == q.numerator
    assert ctx.TC.equal(el.eval(0), ctx.rho(ctx.QS.pow(ctx.psi(3), q.numerator)))
    assert ctx.TC.is_identity(el.eval(1)) and ctx.TC.is_identity(el.eval(-1))


# -- powers of commuting atoms: exponents multiply, atoms stay as many ---------

def _trivial_top_element(level: str, data):
    """(group, element with a trivial top and 2-6 drawn atoms, whether its
    atoms commute pointwise) at QC, QS or TC, or a multi-point omega
    commutator value at TC."""
    if level == "qc":
        fn = st.builds(lambda n, point: (phi(n) if point else tau(n)).atoms[0].fn,
                       st.integers(1, 10), st.booleans())
        group, shift = QC, st.integers(-8, 8)
    else:
        ctx = get_context(data.draw(st.sampled_from(["[x1,x2]", "x1^2"])))
        if level == "omega":
            # [d_n, d_m] has two points for these pairs, and one for most
            n, m = data.draw(st.sampled_from([(1, 6), (3, 6), (5, 6), (6, 1), (6, 7), (8, 6)]))
            x = ctx.omega_commutator(n, m).atoms[0].fn.fiber_value
            assert len(x.atoms) == 2
            return ctx.TC, x, True
        if level == "qs":
            sc, sg = ctx.scoords, ctx.sgroup
            fn = st.builds(lambda n, point: (ctx.psi(n) if point else ctx.chi(n)).atoms[0].fn,
                           st.integers(1, 4), st.booleans())
            group = ctx.QS
            shift = st.builds(lambda i, j: sc.mul(sc.witness_power(i), sg.pow(sg.generator(1), j)),
                              st.integers(-3, 3), st.integers(-2, 2))
        else:
            group = ctx.TC
            makers = [ctx.rho] if data.draw(st.booleans()) else [ctx.rho, ctx.pi]
            shifts = data.draw(st.lists(st.integers(-3, 3), min_size=2, max_size=5, unique=True))
            if data.draw(st.booleans()):
                # the first atom's shift again, after another shift
                shifts.append(shifts[0])
            rng = Random(data.draw(st.integers(0, 10**9)))
            atoms = []
            for s in shifts:
                g = ctx.QS.identity()
                while ctx.QS.is_identity(g):
                    g = ctx.random_t_element(rng, max_len=3)
                atoms.append(Atom(rng.choice(makers)(g).atoms[0].fn, s, rng.choice([-2, -1, 1, 2])))
            x = group.element(0, atoms)
            commute = (all(isinstance(a.fn, PointFn) for a in x.atoms)
                       and len({a.shift for a in x.atoms}) == len(x.atoms))
            return group, x, commute
    atoms = data.draw(st.lists(st.builds(Atom, fn, shift, st.sampled_from([-2, -1, 1, 2])),
                               min_size=2, max_size=6))
    return group, group.element(group.coords.identity(), atoms), True


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["qc", "qs", "tc", "tc", "omega"]), st.data())
def test_powers_of_commuting_atoms_match_the_mul_fold(level, data):
    group, x, commute = _trivial_top_element(level, data)
    for n in range(-6, 7):
        base = x if n >= 0 else group.inv(x)
        fold = functools.reduce(group.mul, [base] * abs(n), group.identity())
        power = group.pow(x, n)
        assert power == fold
        assert group.fmt(power) == group.fmt(fold)
        if commute and n:
            assert len(power.atoms) == len(x.atoms)
    assert group.pow(x, 0) is group.identity()


def test_a_big_power_of_commuting_atoms_costs_no_mul(monkeypatch):
    ctx = get_context("[x1,x2]")
    x = QC.product([tau(2), QC.conj(phi(3), c_elem(2)), QC.conj(tau(5), c_elem(-1)),
                    QC.conj(phi(7), c_elem(4))])
    v = ctx.omega_commutator(1, 6).atoms[0].fn.fiber_value
    assert len(x.atoms) == 4 and len(v.atoms) == 2
    calls = []
    mul = WreathGroup.mul
    monkeypatch.setattr(WreathGroup, "mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    n = 10**6
    qc_power, tc_power = QC.pow(x, n), ctx.TC.pow(v, n)
    assert calls == []
    for j in range(-4, 6):
        assert QC.eval(qc_power, j) == n * QC.eval(x, j)
        assert ctx.QS.equal(ctx.TC.eval(tc_power, j), ctx.QS.pow(ctx.TC.eval(v, j), n))


# -- batch atom evaluation ---------------------------------------------------------

def _s_coordinates(ctx):
    """a^i * x1^j * x_rank^k, off the witness ray: where the witness is
    not central, coord * shift^-1 and shift^-1 * coord differ there."""
    sc, sg = ctx.scoords, ctx.sgroup
    first, last = sg.generator(1), sg.generator(sg.rank)
    return [sc.mul(sc.mul(sc.witness_power(i), sg.pow(first, j)), sg.pow(last, k))
            for i in range(-2, 3) for j in range(-2, 3) for k in range(-2, 3)]


class _FirstGenerator:
    """S the free class-2 group of rank 2 with the witness x1, which is
    not central: there coord * shift^-1 and shift^-1 * coord can lie on
    different rays, as they cannot for the built-in S groups."""

    family_key = "x1 in N(2,2)"

    def select(self):
        from wreathord.nilpotent import Nil2Group, VerbalWitness, Word

        group = Nil2Group(2)
        x1 = group.generator(1)
        return group, VerbalWitness(x1, ((Word.power(1, 1), (x1,), 1),))


_FIRST_GENERATOR = _FirstGenerator()


def _dyadic_dz_element(ctx, rng, far):
    """A D Wr Z product of omega powers shifted by +-2^k, k <= 12, and
    point atoms near the origin; with ``far``, one more omega power whose
    shift puts 2^199999 near the origin."""
    omega = ctx.omega().atoms[0].fn
    atoms = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.7:
            shift = rng.choice([-1, 1]) << rng.randint(0, 12)
            atoms.append(Atom(omega, shift, rng.choice([-2, -1, 1, 2])))
        else:
            value = ctx.random_d_element(rng, max_len=2)
            atoms.append(Atom(PointFn(value, ctx.TC, ctx.DZ.coords), rng.randint(-40, 40), 1))
    if far:
        atoms.insert(rng.randint(0, len(atoms)),
                     Atom(omega, rng.randint(-8, 8) - (1 << 199999), rng.choice([-1, 1])))
    return ctx.DZ.element(rng.randint(-2, 2), atoms)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["qc", "w", "qs", "tc", "dz", "dz-dyadic"]), st.integers(0, 10**9),
       st.sampled_from(["[x1,x2]", "x1^2", _FIRST_GENERATOR]))
@example("dz-dyadic", 1, "[x1,x2]")
def test_atom_values_agree_with_eval_and_the_form(level, seed, word):
    # every level reads a list of coordinates; the integer levels also read
    # the same window as a range, which evaluates only where an atom's
    # support reaches
    rng = Random(seed)
    ctx = get_context(word)
    window = range(-10, 11)
    if level == "qc":
        group, x = QC, random_qc_element(rng)
    elif level == "w":
        group = W
        x = W.mul(random_w_element(rng), w_point(random_qc_element(rng), at=rng.randint(-3, 3)))
        if rng.random() < 0.5:
            x = W.element(0, [a for a in x.atoms if a.fn.finite])
    elif level == "qs":
        group, window = ctx.QS, None
        sc, sg = ctx.scoords, ctx.sgroup
        atoms = [Atom((ctx.psi(n) if rng.random() < 0.5 else ctx.chi(n)).atoms[0].fn,
                      sc.mul(sc.witness_power(rng.randint(-2, 2)),
                             sg.pow(sg.generator(sg.rank), rng.randint(-2, 2))),
                      rng.choice([-2, -1, 1, 2]))
                 for n in (rng.randint(1, 4) for _ in range(rng.randint(1, 5)))]
        x = ctx.QS.element(sc.witness_power(rng.randint(-1, 1)), atoms)
    elif level == "tc":
        group, x = ctx.TC, ctx.random_d_element(rng, max_len=4)
    elif level == "dz":
        group = ctx.DZ
        point = group.point(ctx.random_d_element(rng, max_len=2), at=rng.randint(-3, 3))
        if rng.random() < 0.5:
            x = group.mul(ctx.omega_commutator(rng.randint(0, 3), rng.randint(4, 6)), point)
        else:
            x = group.mul(g_word_element(random_g_word(rng, max_len=4, gen="omega"),
                                         ctx.omega()), point)
    else:
        group = ctx.DZ
        x = _dyadic_dz_element(ctx, rng, far=seed % 4 == 1)
        hi = 1 << rng.randint(0, 12)
        window = range(-hi, hi + 1)
    form = None if group.tail_kind else group.base_canonical(x)
    for coords in ([_s_coordinates(ctx)] if window is None else [list(window), window]):
        values = list(group.atom_values(x, coords))
        assert len(values) == len(coords)
        for c, v in zip(coords, values):
            assert v == group.eval(x, c)
            if form is not None:
                assert v == form.value(c)
