from dataclasses import FrozenInstanceError
from math import gcd, log, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    PeriodStructure,
    find_a0_and_period,
    is_irreducible,
    linear_spectral_radius,
    model_from_dict,
    reduce_a0,
)
from treeshift import alphabet_graph
from treeshift.alphabet_graph import _perron_value, _recurrent, _sccs
from treeshift.errors import (
    A1Violated,
    ClassInconsistency,
    EmptyModel,
    ModelValidationError,
)

from conftest import make_model


# Reference: the traversal implementation the reachability matrix replaced
# (iterative Tarjan, one BFS per start symbol, per-edge loops, and the
# column-deletion loop of the a0 reduction).  The property test below holds
# the closure-based code to it, result for result.


def _ref_children(adj, b):
    return [int(a) for a in np.nonzero(adj[:, b])[0]]


def _ref_descendants(adj, start):
    dist = {start: 0}
    queue = [start]
    while queue:
        b = queue.pop(0)
        for a in _ref_children(adj, b):
            if a not in dist:
                dist[a] = dist[b] + 1
                queue.append(a)
    return set(dist), dist


def _ref_sccs(adj):
    n = adj.shape[0]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack, sccs = [], []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(_ref_children(adj, root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(_ref_children(adj, w))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def _ref_find_a0_and_period(model, a0=None):
    adj = model.adjacency
    n = model.n_symbols
    if not model.satisfies_a0():
        raise ModelValidationError("model has empty columns; call reduce_a0 first")
    if a0 is None:
        candidate = None
        recurrent = set()
        for s in range(n):
            reached, _ = _ref_descendants(adj, s)
            if s in {a for b in reached for a in _ref_children(adj, b)}:
                recurrent.add(s)
            if len(reached) == n:
                candidate = s
                break
        if candidate is None:
            raise A1Violated(
                "no symbol generates every symbol as a descendant",
                recurrent=sorted(recurrent),
            )
        a0 = candidate
    reached, dist = _ref_descendants(adj, a0)
    if len(reached) != n:
        raise A1Violated(f"symbol {a0} does not generate every symbol", recurrent=())
    home = next(comp for comp in _ref_sccs(adj) if a0 in comp)
    p = 0
    for u in home:
        for v in _ref_children(adj, u):
            if v in home:
                p = gcd(p, dist[u] + 1 - dist[v])
    if p == 0:
        raise A1Violated(f"symbol {a0} lies on no cycle", recurrent=())
    class_of = [dist[a] % p for a in range(n)]
    for b in range(n):
        for a in _ref_children(adj, b):
            if class_of[a] != (class_of[b] + 1) % p:
                raise ClassInconsistency(
                    f"edge {b}->{a} breaks the mod-{p} class labeling", row=a, col=b
                )
    classes = tuple(frozenset(a for a in range(n) if class_of[a] == j) for j in range(p))
    return PeriodStructure(a0=a0, period=p, classes=classes, class_of=tuple(class_of))


def _ref_reduce_a0(adj):
    """Symbols left after deleting childless symbols to a fixpoint."""
    keep = np.arange(adj.shape[0])
    while True:
        alive = adj.sum(axis=0) > 0
        if alive.all():
            return keep.tolist()
        keep = keep[alive]
        if keep.size == 0:
            return None
        adj = adj[np.ix_(alive.nonzero()[0], alive.nonzero()[0])]


def _ref_reachability(adj):
    n = adj.shape[0]
    closures = tuple(frozenset(_ref_descendants(adj, a)[0]) for a in range(n))
    sccs = _ref_sccs(adj)
    recurrent = frozenset(
        a for comp in sccs for a in comp if len(comp) > 1 or adj[a, a]
    )
    return closures, recurrent, {frozenset(c) for c in sccs}


def _ref_linear_spectral_radius(w):
    best = -np.inf
    for comp in _ref_sccs((w > 0).astype(int)):
        idx = sorted(comp)
        block = w[np.ix_(idx, idx)]
        if len(idx) == 1 and block[0, 0] == 0.0:
            continue
        rho = _perron_value(block, 1e-12, 10**5)
        best = max(best, log(rho) if rho > 0 else -np.inf)
    return best


def _closures(model):
    """The descendant closure of each symbol: the rows of ``model.reach``."""
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in model.reach)


def _recurrent_set(model):
    return frozenset(np.flatnonzero(_recurrent(model.adjacency, model.reach)).tolist())


def _outcome(fn, *args, **kwargs):
    """The result, or the error's class, message and carried fields."""
    try:
        return fn(*args, **kwargs)
    except ModelValidationError as exc:
        return (
            type(exc), str(exc), getattr(exc, "recurrent", None), exc.row, exc.col
        )


class TestAgainstTraversal:
    @given(
        st.integers(1, 12),
        st.sampled_from([0.1, 0.25, 0.4, 0.6, 0.85]),
        st.integers(0, 2**36 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_structure_as_reference(self, n, density, seed):
        rng = np.random.default_rng(seed)
        adj = (rng.random((n, n)) < density).astype(int)
        model = make_model(adj.tolist())

        closures, recurrent, sccs = _ref_reachability(model.adjacency)
        assert is_irreducible(model) == (len(sccs) == 1)
        assert _closures(model) == closures
        assert _recurrent_set(model) == recurrent
        scc_list = _sccs(model.reach)
        assert {frozenset(c) for c in scc_list} == sccs and len(scc_list) == len(sccs)

        keep = _ref_reduce_a0(model.adjacency)
        if keep is None:
            with pytest.raises(EmptyModel):
                reduce_a0(model)
        else:
            assert reduce_a0(model).symbols == tuple(model.symbols[i] for i in keep)

        for a0 in (None, *range(n)):
            assert _outcome(find_a0_and_period, model, a0) == _outcome(
                _ref_find_a0_and_period, model, a0
            )

        w = adj * rng.random((n, n))
        assert linear_spectral_radius(w) == _ref_linear_spectral_radius(w)

    def test_scc_list_by_smallest_member(self):
        # 0 -> 3 <-> 1 and 2 <-> 4; Tarjan from 0 closed {1, 3} before {0}
        model = make_model(
            [[0, 0, 0, 0, 0],
             [0, 0, 0, 1, 0],
             [0, 0, 0, 0, 1],
             [1, 1, 0, 0, 0],
             [0, 0, 1, 0, 0]]
        )
        assert _sccs(model.reach) == [[0], [1, 3], [2, 4]]


class TestReduce:
    def test_already_reduced(self, full2):
        assert reduce_a0(full2) is full2

    def test_deletes_empty_column_to_fixpoint(self):
        model = make_model([[1, 0], [1, 0]])
        reduced = reduce_a0(model)
        assert reduced.symbols == ("0",)
        assert reduced.adjacency.tolist() == [[1]]

    def test_all_deleted(self):
        with pytest.raises(EmptyModel):
            reduce_a0(make_model([[0, 0], [0, 0]]))

    @given(st.integers(2, 6), st.integers(0, 2**36 - 1))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_a0(self, n, seed):
        rng = np.random.default_rng(seed)
        adj = (rng.random((n, n)) < 0.4).astype(int)
        model = make_model(adj.tolist())
        try:
            reduced = reduce_a0(model)
        except EmptyModel:
            return
        assert reduced.satisfies_a0()
        again = reduce_a0(reduced)
        assert again.symbols == reduced.symbols
        assert np.array_equal(again.adjacency, reduced.adjacency)


class TestCachedStructure:
    def test_reach_is_read_only(self, nine):
        with pytest.raises(ValueError):
            nine.reach[0, 0] = False
        with pytest.raises(FrozenInstanceError):
            nine.reach = np.ones((9, 9), dtype=bool)
        assert not nine.reach.flags.writeable

    def test_built_once(self, period2):
        assert period2.reach is period2.reach
        assert period2.structure is period2.structure
        assert period2.structure == find_a0_and_period(period2)

    @given(
        st.integers(2, 8),
        st.sampled_from([0.15, 0.3, 0.5]),
        st.integers(0, 2**36 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_smallest_base_is_the_closure_a0(self, n, density, seed):
        # hausdorff_dimension takes each closure's labeling from the submodel's
        # own structure, where it used to force a0 to the closure's smallest
        # base; at these densities about half of the (A0) models are reducible
        rng = np.random.default_rng(seed)
        try:
            model = reduce_a0(make_model((rng.random((n, n)) < density).astype(int).tolist()))
        except EmptyModel:
            return
        rows: dict[bytes, int] = {}
        for a in sorted(_recurrent_set(model)):
            rows.setdefault(model.reach[a].tobytes(), a)
        for a in rows.values():
            keep = np.flatnonzero(model.reach[a])
            sub = model.submodel(keep)
            structure = _outcome(find_a0_and_period, sub)
            assert structure == _outcome(find_a0_and_period, sub, int(np.searchsorted(keep, a)))
            if isinstance(structure, PeriodStructure):
                assert keep[structure.a0] == a


class TestPeriod:
    def test_golden_mean(self, golden):
        ps = find_a0_and_period(golden)
        assert ps.a0 == 0
        assert ps.period == 1
        assert ps.classes == (frozenset({0, 1}),)

    def test_two_class_partition(self, period2):
        ps = find_a0_and_period(period2)
        assert ps.a0 == 0
        assert ps.period == 2
        assert ps.classes == (frozenset({0}), frozenset({1, 2}))

    def test_swap(self, swap2):
        ps = find_a0_and_period(swap2)
        assert ps.period == 2
        assert ps.classes == (frozenset({0}), frozenset({1}))

    def test_nine(self, nine):
        ps = find_a0_and_period(nine)
        assert ps.period == 3
        assert ps.classes[0] == frozenset({0, 1, 2})
        assert ps.classes[1] == frozenset({6, 7, 8})
        assert ps.classes[2] == frozenset({3, 4, 5})

    def test_a1_violated_lists_recurrent(self):
        with pytest.raises(A1Violated) as err:
            find_a0_and_period(make_model([[1, 0], [0, 1]]))
        assert set(err.value.recurrent) == {0, 1}

    def test_forced_a0_rotates_classes_same_period(self, period2):
        base = find_a0_and_period(period2)
        forced = find_a0_and_period(period2, a0=1)
        assert forced.period == base.period
        assert {frozenset(c) for c in forced.classes} == {
            frozenset(c) for c in base.classes
        }

    @given(st.integers(2, 6), st.integers(0, 2**36 - 1))
    @settings(max_examples=80, deadline=None)
    def test_class_consistency_random_irreducible(self, n, seed):
        rng = np.random.default_rng(seed)
        adj = (rng.random((n, n)) < 0.5).astype(int)
        model = make_model(adj.tolist())
        if not model.satisfies_a0() or not is_irreducible(model):
            return
        ps = find_a0_and_period(model)
        for b in range(n):
            for a in model.children_of(b):
                assert ps.class_of[a] == (ps.class_of[b] + 1) % ps.period

    @given(st.integers(2, 6), st.integers(0, 2**36 - 1))
    @settings(max_examples=60, deadline=None)
    def test_period_divides_return_times(self, n, seed):
        rng = np.random.default_rng(seed)
        adj = (rng.random((n, n)) < 0.5).astype(int)
        model = make_model(adj.tolist())
        if not model.satisfies_a0() or not is_irreducible(model):
            return
        ps = find_a0_and_period(model)
        # boolean (saturating) matrix powers
        power = np.eye(n, dtype=bool)
        boolean = model.adjacency.astype(bool)
        returns = []
        for k in range(1, n * n + n + 1):
            power = (power @ boolean) > 0
            if power[ps.a0, ps.a0]:
                returns.append(k)
        assert returns, "a0 must lie on a cycle"
        assert all(k % ps.period == 0 for k in returns)
        g = 0
        for k in returns:
            g = gcd(g, k)
        assert g == ps.period


class TestReachability:
    def test_full(self, full2):
        assert _closures(full2) == (frozenset({0, 1}), frozenset({0, 1}))
        assert _recurrent_set(full2) == frozenset({0, 1})

    def test_upper_triangular(self):
        model = make_model([[1, 1], [0, 1]])
        closures = _closures(model)
        assert closures[1] == frozenset({0, 1})
        assert closures[0] == frozenset({0})
        assert _recurrent_set(model) == frozenset({0, 1})

    def test_three_cycle_all_recurrent(self):
        model = make_model([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert _recurrent_set(model) == frozenset({0, 1, 2})

    def test_acyclic_matrix_has_empty_recurrent_set(self):
        # a strict DAG necessarily violates the column-sum condition (its
        # sinks would be deleted), but the closure itself is total on it
        model = make_model([[0, 0, 0], [1, 0, 0], [1, 1, 0]])
        assert _recurrent_set(model) == frozenset()
        assert all(len(c) == 1 for c in _sccs(model.reach))

    def test_closure_nesting(self, golden):
        closures = _closures(golden)
        for a in range(2):
            assert a in closures[a]
            for b in closures[a]:
                assert closures[b] <= closures[a]


class TestIrreducible:
    def test_golden(self, golden):
        assert is_irreducible(golden)

    def test_upper_triangular_not(self):
        assert not is_irreducible(make_model([[1, 1], [0, 1]]))

    def test_two_class_example(self, period2):
        assert is_irreducible(period2)


class TestSpectralRadius:
    def test_rank_one(self):
        assert linear_spectral_radius(np.ones((2, 2))) == pytest.approx(log(2), abs=1e-12)

    def test_golden_ratio(self):
        got = linear_spectral_radius(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert got == pytest.approx(log((1 + sqrt(5)) / 2), abs=1e-12)

    def test_nine_example(self, nine):
        got = linear_spectral_radius(nine.adjacency.T.astype(float))
        assert got == pytest.approx(0.3208, abs=1e-3)

    def test_nilpotent_plus_cycle(self):
        # strict upper triangular part must not stall the iteration
        w = np.array([[0.0, 5.0, 1.0], [0.0, 0.0, 7.0], [0.0, 0.0, 2.0]])
        assert linear_spectral_radius(w) == pytest.approx(log(2), abs=1e-12)

    @pytest.mark.parametrize("eps", [1e-5, 1e-7])
    def test_slow_mixing_stochastic(self, eps):
        # spectral gap 3 eps: shifted power iteration alone hit its step cap
        w = np.array([[1 - eps, 2 * eps], [eps, 1 - 2 * eps]])
        assert linear_spectral_radius(w) == pytest.approx(0.0, abs=1e-12)

    def test_long_cycle_with_chord(self):
        # the cycle 0 -> 1 -> ... -> 399 -> 0 plus the chord 0 -> 200: walks
        # from 0 first return after 400 or 201 steps, so the Perron root
        # solves rho^-400 + rho^-201 = 1
        n = 400
        w = np.zeros((n, n))
        w[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
        w[n // 2, 0] = 1.0
        rho = np.exp(linear_spectral_radius(w))
        assert rho ** -n + rho ** -(n // 2 + 1) == pytest.approx(1.0, abs=1e-11)

    @given(st.integers(2, 6), st.integers(0, 2**36 - 1))
    @settings(max_examples=40, deadline=None)
    def test_transpose_invariance(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
        assert linear_spectral_radius(w) == pytest.approx(
            linear_spectral_radius(w.T), abs=1e-10
        )


class TestModelParsing:
    def test_roundtrip(self):
        data = {"symbols": ["a", "b"], "adjacency": [[1, 1], [1, 0]], "d": 2}
        model = model_from_dict(data)
        assert model.symbols == ("a", "b")
        assert model.arity == 2

    def test_bad_entry_carries_indices(self):
        data = {"symbols": ["a", "b"], "adjacency": [[1, 2], [1, 0]], "d": 2}
        with pytest.raises(ModelValidationError) as err:
            model_from_dict(data)
        assert err.value.row == 0
        assert err.value.col == 1

    def test_ragged_row_rejected(self):
        data = {"symbols": ["a", "b"], "adjacency": [[1, 1], [1]], "d": 2}
        with pytest.raises(ModelValidationError) as err:
            model_from_dict(data)
        assert err.value.row == 1

    def test_symbol_cap(self, monkeypatch):
        data = {
            "symbols": [str(i) for i in range(65)],
            "adjacency": [[1] * 65 for _ in range(65)],
            "d": 2,
        }
        with pytest.raises(ModelValidationError):
            model_from_dict(data)
        monkeypatch.setattr(alphabet_graph, "MAX_SYMBOLS", 70)
        model = model_from_dict(data)
        assert model.n_symbols == 65
