import copy
import math
import pickle

import numpy as np
import pytest

from binlbm import (
    BinaryDataMatrix,
    CoPartition,
    LBMParameters,
    PriorHyperparams,
    ValidationError,
    block_counts,
    fit,
    icl,
    simulate_dataset,
    staircase_parameters,
)
from binlbm.model import _expected_counts, _one_hot
from oracles import block_counts_loop, icl_conjugate_oracle

PRIOR = PriorHyperparams()


def random_instance(rng, n_max=6, q_max=5, g_max=3, m_max=3):
    n = int(rng.integers(1, n_max + 1))
    q = int(rng.integers(1, q_max + 1))
    g = int(rng.integers(1, g_max + 1))
    m = int(rng.integers(1, m_max + 1))
    data = BinaryDataMatrix(rng.integers(0, 2, size=(n, q)))
    part = CoPartition(rng.integers(0, g, size=n), rng.integers(0, m, size=q), g, m)
    return data, part, g, m


class TestTypes:
    def test_data_matrix_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            BinaryDataMatrix(np.array([[0, 2], [1, 0]]))
        with pytest.raises(ValidationError):
            BinaryDataMatrix(np.array([[0.5, 0.0]]))
        with pytest.raises(ValidationError):
            BinaryDataMatrix(np.zeros((0, 3)))

    @pytest.mark.parametrize("values", [
        np.array([[0, 1], [1, 0]]),
        np.array([[0, 1], [1, 0]], dtype=np.int8),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[False, True], [True, False]]),
    ])
    def test_data_matrix_accepts_zero_one_cells(self, values):
        data = BinaryDataMatrix(values)
        assert data.values.dtype == np.int8
        assert data.values.tolist() == [[0, 1], [1, 0]]
        assert not np.shares_memory(data.values, values)

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_data_matrix_rejects_every_other_cell(self, bad):
        with pytest.raises(ValidationError, match="^data matrix cells must all be 0 or 1$"):
            BinaryDataMatrix(np.array([[0, 1], [1, bad]]))

    def test_data_matrix_is_immutable(self):
        data = BinaryDataMatrix(np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            data.values[0, 0] = 1

    def test_parameters_validate_simplex(self):
        with pytest.raises(ValidationError):
            LBMParameters(2, 1, [0.6, 0.6], [1.0], [[0.5], [0.5]])
        with pytest.raises(ValidationError):
            LBMParameters(1, 1, [1.0], [1.0], [[1.5]])
        with pytest.raises(ValidationError):
            LBMParameters(1, 1, [np.nan], [1.0], [[0.5]])

    def test_partition_validates_ranges(self):
        with pytest.raises(ValidationError):
            CoPartition(np.array([0, 2]), np.array([0]), 2, 1)
        with pytest.raises(ValidationError):
            CoPartition(np.array([-1]), np.array([0]), 1, 1)
        part = CoPartition(np.array([0, 0]), np.array([1]), 3, 2)  # empty groups are fine
        assert part.g == 3

    def test_prior_positivity(self):
        with pytest.raises(ValidationError):
            PriorHyperparams(a=0.0)
        with pytest.raises(ValidationError):
            PriorHyperparams(b=-1.0)


def leaves(obj, path=""):
    """(path, value) for every field of a container, through nested ones."""
    for name, value in vars(obj).items():
        if hasattr(value, "__dataclass_fields__"):
            yield from leaves(value, f"{path}{name}.")
        else:
            yield f"{path}{name}", value


class TestFrozenCopies:
    """A copy made by pickle or copy is equal and its arrays stay read-only."""

    DATA, PART = simulate_dataset(staircase_parameters(2, 2, 0.2), 12, 6, seed=3)
    FIT = fit(DATA, 2, 2, PRIOR, seed=4)
    CONTAINERS = {
        "BinaryDataMatrix": DATA,
        "LBMParameters": FIT.params,
        "CoPartition": PART,
        "BlockCounts": block_counts(DATA, PART),
        "VariationalState": FIT.state,
        "FitResult": FIT,
    }
    COPIES = {
        "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
        "deepcopy": copy.deepcopy,
        "copy": copy.copy,
    }

    @pytest.mark.parametrize("how", COPIES)
    @pytest.mark.parametrize("name", CONTAINERS)
    def test_copy_is_equal_and_read_only(self, name, how):
        original = self.CONTAINERS[name]
        clone = self.COPIES[how](original)
        assert type(clone) is type(original)
        want = dict(leaves(original))
        got = dict(leaves(clone))
        assert got.keys() == want.keys()
        for path, value in got.items():
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, path
                assert value.dtype == want[path].dtype, path
                assert np.array_equal(value, want[path]), path
            else:
                assert value == want[path], path

    def test_copy_is_checked_again(self):
        # the constructor rebuilds a copy, so it checks it too
        part = CoPartition(np.array([0, 1]), np.array([0]), 2, 1)
        object.__setattr__(part, "g", 1)
        with pytest.raises(ValidationError):
            pickle.loads(pickle.dumps(part))


class TestStaircase:
    def test_three_by_four(self):
        params = staircase_parameters(3, 4, 0.05)
        assert np.allclose(params.alpha[0], [0.05, 0.95, 0.95, 0.95])
        assert np.allclose(params.alpha[2], [0.05, 0.05, 0.05, 0.95])
        assert np.allclose(params.pi, 1.0 / 3)
        assert np.allclose(params.rho, 0.25)

    def test_degenerate_and_square(self):
        assert staircase_parameters(1, 1, 0.3).alpha.tolist() == [[0.3]]
        assert staircase_parameters(2, 2, 0.25).alpha.tolist() == [[0.25, 0.75], [0.25, 0.25]]

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_epsilon_bounds(self, epsilon):
        with pytest.raises(ValidationError):
            staircase_parameters(2, 2, epsilon)


class TestSimulate:
    def test_degenerate_rates(self):
        ones = LBMParameters(1, 1, [1.0], [1.0], [[1.0]])
        data, _ = simulate_dataset(ones, 4, 6, seed=0)
        assert data.values.all()
        zeros = LBMParameters(1, 1, [1.0], [1.0], [[0.0]])
        data, _ = simulate_dataset(zeros, 5, 3, seed=0)
        assert not data.values.any()

    def test_determinism(self):
        params = staircase_parameters(3, 4, 0.2)
        first = simulate_dataset(params, 25, 12, seed=123)
        second = simulate_dataset(params, 25, 12, seed=123)
        assert np.array_equal(first[0].values, second[0].values)
        assert np.array_equal(first[1].z, second[1].z)
        assert np.array_equal(first[1].w, second[1].w)
        third = simulate_dataset(params, 25, 12, seed=124)
        assert not np.array_equal(first[0].values, third[0].values)

    def test_block_means_concentrate(self):
        # binomial concentration: every block with >= 50 cells ends up within
        # 0.10 of its Bernoulli rate
        params = staircase_parameters(3, 4, 0.05)
        data, part = simulate_dataset(params, 137, 33, seed=7)
        counts = block_counts(data, part)
        totals = np.outer(counts.row_sizes, counts.col_sizes)
        for k in range(3):
            for l in range(4):
                if totals[k, l] >= 50:
                    mean = counts.n1[k, l] / totals[k, l]
                    assert abs(mean - params.alpha[k, l]) < 0.10


class TestBlockCounts:
    def test_single_block_all_ones(self):
        data = BinaryDataMatrix(np.ones((2, 2), dtype=int))
        part = CoPartition(np.zeros(2, dtype=int), np.zeros(2, dtype=int), 1, 1)
        counts = block_counts(data, part)
        assert counts.n1.tolist() == [[4]]
        assert counts.n0.tolist() == [[0]]

    def test_two_by_two_diagonal(self):
        data = BinaryDataMatrix(np.array([[1, 0], [0, 1]]))
        part = CoPartition(np.array([0, 1]), np.array([0, 1]), 2, 2)
        counts = block_counts(data, part)
        assert counts.n1.tolist() == [[1, 0], [0, 1]]
        assert counts.n0.tolist() == [[0, 1], [1, 0]]

    def test_against_double_loop(self):
        rng = np.random.default_rng(11)
        data = BinaryDataMatrix(rng.integers(0, 2, size=(5, 4)))
        part = CoPartition(rng.integers(0, 3, size=5), rng.integers(0, 2, size=4), 3, 2)
        counts = block_counts(data, part)
        n1_ref, n0_ref = block_counts_loop(data.values.tolist(), part.z.tolist(),
                                           part.w.tolist(), 3, 2)
        assert counts.n1.tolist() == n1_ref
        assert counts.n0.tolist() == n0_ref

    def test_totals_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            data, part, g, m = random_instance(rng)
            counts = block_counts(data, part)
            assert int((counts.n1 + counts.n0).sum()) == data.n * data.q
            assert int(counts.row_sizes.sum()) == data.n
            assert int(counts.col_sizes.sum()) == data.q

    def test_dimension_mismatch(self):
        data = BinaryDataMatrix(np.zeros((3, 2), dtype=int))
        part = CoPartition(np.zeros(2, dtype=int), np.zeros(2, dtype=int), 1, 1)
        with pytest.raises(ValidationError):
            block_counts(data, part)

    def test_tallies_match_add_at(self):
        # one-hot labels over int8 data (the icl path) and float data (the
        # V-Bayes path), with labels drawn from a random subset of groups so
        # some stay empty
        rng = np.random.default_rng(17)
        for _ in range(30):
            n, q = int(rng.integers(1, 60)), int(rng.integers(1, 20))
            g, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            values = rng.integers(0, 2, size=(n, q)).astype(np.int8)
            used_rows = rng.choice(g, size=int(rng.integers(1, g + 1)), replace=False)
            used_cols = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
            z = rng.choice(used_rows, size=n)
            w = rng.choice(used_cols, size=q)
            n1 = np.zeros((g, m), dtype=np.int64)
            n0 = np.zeros((g, m), dtype=np.int64)
            np.add.at(n1, (z[:, None], w[None, :]), values)
            np.add.at(n0, (z[:, None], w[None, :]), 1 - values)
            rows = np.zeros(g, dtype=np.int64)
            cols = np.zeros(m, dtype=np.int64)
            np.add.at(rows, z, 1)
            np.add.at(cols, w, 1)
            for cells in (values, values.astype(float)):
                row_mass, col_mass, s1, s_tot = _expected_counts(
                    cells, _one_hot(z, g), _one_hot(w, m))
                got = (s1, s_tot - s1, row_mass, col_mass)
                for actual, expected in zip(got, (n1, n0, rows, cols)):
                    assert np.array_equal(actual, expected)


class TestIcl:
    def test_one_by_one_zero(self):
        data = BinaryDataMatrix(np.array([[0]]))
        part = CoPartition(np.array([0]), np.array([0]), 1, 1)
        assert icl(data, part, 1, 1, PRIOR) == pytest.approx(-math.log(2), abs=1e-12)

    def test_two_by_two_ones(self):
        data = BinaryDataMatrix(np.ones((2, 2), dtype=int))
        part = CoPartition(np.zeros(2, dtype=int), np.zeros(2, dtype=int), 1, 1)
        assert icl(data, part, 1, 1, PRIOR) == pytest.approx(-math.log(5), abs=1e-12)

    def test_against_conjugate_oracle(self):
        rng = np.random.default_rng(21)
        data = BinaryDataMatrix(rng.integers(0, 2, size=(4, 3)))
        part = CoPartition(rng.integers(0, 2, size=4), rng.integers(0, 2, size=3), 2, 2)
        expected = icl_conjugate_oracle(data.values.tolist(), part.z.tolist(),
                                        part.w.tolist(), 2, 2, 4.0, 1.0)
        assert icl(data, part, 2, 2, PRIOR) == pytest.approx(expected, abs=1e-9)

    def test_empty_groups_are_finite_and_exact(self):
        data = BinaryDataMatrix(np.array([[1, 0], [0, 1]]))
        part = CoPartition(np.array([0, 0]), np.array([0, 0]), 3, 2)
        value = icl(data, part, 3, 2, PriorHyperparams(a=2.0, b=0.5))
        expected = icl_conjugate_oracle(data.values.tolist(), part.z.tolist(),
                                        part.w.tolist(), 3, 2, 2.0, 0.5)
        assert math.isfinite(value)
        assert value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("a, b", [(4, 1), (1, 1), (2, 2)])
    def test_matches_log_factorials_at_integer_priors(self, a, b):
        # with integer a and b every log-gamma argument is an integer k, and
        # lgamma(k) = log((k - 1)!) exactly; this pins the log-gamma primitive
        # itself, which the conjugate oracle shares with the package
        def log_gamma(k):
            return math.log(math.factorial(k - 1))

        rng = np.random.default_rng(97)
        prior = PriorHyperparams(a=float(a), b=float(b))
        empty_groups = 0
        for _ in range(200):
            n, q = int(rng.integers(1, 40)), int(rng.integers(1, 30))
            g, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            values = rng.integers(0, 2, size=(n, q))
            z = rng.integers(0, rng.integers(1, g + 1), size=n)
            w = rng.integers(0, rng.integers(1, m + 1), size=q)
            zk = [int((z == k).sum()) for k in range(g)]
            wl = [int((w == l).sum()) for l in range(m)]
            empty_groups += zk.count(0) + wl.count(0)
            expected = (log_gamma(g * a) - log_gamma(n + g * a)
                        + log_gamma(m * a) - log_gamma(q + m * a)
                        + sum(log_gamma(c + a) - log_gamma(a) for c in zk + wl))
            for k in range(g):
                for l in range(m):
                    ones = int(values[np.ix_(z == k, w == l)].sum())
                    size = zk[k] * wl[l]
                    expected += (log_gamma(2 * b) - 2 * log_gamma(b)
                                 + log_gamma(ones + b) + log_gamma(size - ones + b)
                                 - log_gamma(size + 2 * b))
            value = icl(BinaryDataMatrix(values), CoPartition(z, w, g, m), g, m, prior)
            assert value == pytest.approx(expected, rel=1e-12)
        assert empty_groups > 0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            data, part, g, m = random_instance(rng)
            base = icl(data, part, g, m, PRIOR)
            perm_g = rng.permutation(g)
            perm_m = rng.permutation(m)
            relabeled = CoPartition(perm_g[part.z], perm_m[part.w], g, m)
            assert icl(data, relabeled, g, m, PRIOR) == pytest.approx(base, abs=1e-12)

    def test_data_permutation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            data, part, g, m = random_instance(rng)
            base = icl(data, part, g, m, PRIOR)
            row_perm = rng.permutation(data.n)
            col_perm = rng.permutation(data.q)
            shuffled = BinaryDataMatrix(data.values[row_perm][:, col_perm])
            shuffled_part = CoPartition(part.z[row_perm], part.w[col_perm], g, m)
            assert icl(shuffled, shuffled_part, g, m, PRIOR) == pytest.approx(base, abs=1e-12)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            data, part, g, m = random_instance(rng)
            flipped = BinaryDataMatrix(1 - data.values)
            assert icl(flipped, part, g, m, PRIOR) == pytest.approx(
                icl(data, part, g, m, PRIOR), abs=1e-12)

    def test_group_count_mismatch(self):
        data = BinaryDataMatrix(np.array([[0]]))
        part = CoPartition(np.array([0]), np.array([0]), 1, 1)
        with pytest.raises(ValidationError):
            icl(data, part, 2, 1, PRIOR)
