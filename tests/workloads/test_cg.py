"""Tests for the conjugate-gradient workload (real numerics)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mpi import SimMPI
from repro.simkit import Environment
from repro.workloads import ConjugateGradientWorkload, WorkShell


def laplacian_columns(grid, row):
    """``(column, value)`` of one row of the 5-point Laplacian, ascending."""
    i, j = divmod(row, grid)
    entries = [(row, 4.0)]
    for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
        if 0 <= ni < grid and 0 <= nj < grid:
            entries.append((ni * grid + nj, -1.0))
    return sorted(entries)


def dense_laplacian(grid):
    n = grid * grid
    full = np.zeros((n, n))
    for row in range(n):
        for column, value in laplacian_columns(grid, row):
            full[row, column] = value
    return full


def workload_rows(grid, rank, size):
    """Rank ``rank``'s rows of the workload's operator, as a dense block."""
    workload = ConjugateGradientWorkload(grid=grid)
    workload.configure(rank, size)
    return np.column_stack([workload.matvec(unit) for unit in np.eye(grid * grid)])


def run_cg(size, **kwargs):
    env = Environment()
    world = SimMPI(env, size=size)
    workloads = {}

    def program(ctx):
        workload = ConjugateGradientWorkload(**kwargs)
        workload.configure(ctx.rank, ctx.size)
        shell = WorkShell(ctx, ctx.comm)
        for step in range(workload.total_steps):
            yield from workload.step(shell, step)
        workloads[ctx.rank] = workload
        result = yield from workload.finalize(shell)
        return result

    world.spawn(program)
    world.run()
    return env, world, workloads


class TestMatrix:
    def test_laplacian_is_symmetric_spd(self):
        full = workload_rows(6, 0, 1)
        assert np.array_equal(full, dense_laplacian(6))
        assert np.allclose(full, full.T)
        eigenvalues = np.linalg.eigvalsh(full)
        assert eigenvalues.min() > 0

    def test_row_blocks_tile_the_matrix(self):
        blocks = [workload_rows(5, rank, 3) for rank in range(3)]
        assert np.array_equal(np.vstack(blocks), dense_laplacian(5))

    @pytest.mark.parametrize("grid,size", [(2, 1), (5, 3), (8, 4), (11, 7)])
    def test_matvec_sums_each_row_in_column_order(self, grid, size):
        """Bit for bit a per-row sum from 0.0 in ascending column order
        (how a sorted CSR matrix sums), signed zeros and all."""
        n = grid * grid
        rng = np.random.default_rng(grid)
        p = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        p[rng.random(n) < 0.2] = -0.0
        floats = p.tolist()
        for rank in range(size):
            workload = ConjugateGradientWorkload(grid=grid)
            workload.configure(rank, size)
            expected = []
            for row in range(workload.row_start, workload.row_end):
                total = 0.0
                for column, value in laplacian_columns(grid, row):
                    total += value * floats[column]
                expected.append(total.hex())
            assert [q.hex() for q in workload.matvec(p).tolist()] == expected

    def test_nnz_counts_the_stored_entries(self):
        workload = ConjugateGradientWorkload(grid=5)
        workload.configure(1, 3)
        rows = range(workload.row_start, workload.row_end)
        assert workload.nnz == sum(len(laplacian_columns(5, row)) for row in rows)


class TestSolver:
    def test_residual_decreases(self):
        _, _, workloads = run_cg(2, grid=8, total_steps=20, cycle_length=100)
        workload = workloads[0]
        assert workload.residual < np.sqrt(64.0)  # ||b|| = sqrt(n)

    def test_converges_to_true_solution(self):
        grid = 8
        n = grid * grid
        _, _, workloads = run_cg(4, grid=grid, total_steps=60, cycle_length=100)
        x_parts = [workloads[r].x for r in range(4)]
        x = np.concatenate(x_parts)
        expected = np.linalg.solve(dense_laplacian(grid), np.ones(n))
        assert np.allclose(x, expected, atol=1e-6)

    def test_rank_count_does_not_change_answer(self):
        results = {}
        for size in (1, 2, 4):
            _, world, _ = run_cg(size, grid=8, total_steps=30, cycle_length=100)
            results[size] = world.result_of(0)["checksum"]
        assert results[1] == pytest.approx(results[2], abs=1e-9)
        assert results[1] == pytest.approx(results[4], abs=1e-9)

    def test_cycle_reset_restarts_solve(self):
        _, _, workloads = run_cg(2, grid=8, total_steps=25, cycle_length=20)
        # After the reset at step 20, only 5 fresh iterations happened:
        # the residual is higher than a 25-straight-iteration solve.
        _, _, straight = run_cg(2, grid=8, total_steps=25, cycle_length=100)
        assert workloads[0].residual > straight[0].residual

    def test_compute_time_charged(self):
        env, _, _ = run_cg(2, grid=8, total_steps=10, cycle_length=50,
                           flops_per_second=1e6)
        fast_env, _, _ = run_cg(2, grid=8, total_steps=10, cycle_length=50,
                                flops_per_second=1e12)
        assert env.now > fast_env.now


class TestCheckpointContract:
    def test_state_roundtrip_bit_exact(self):
        _, _, workloads = run_cg(2, grid=8, total_steps=10, cycle_length=50)
        workload = workloads[0]
        state = workload.state()
        clone = ConjugateGradientWorkload(grid=8, total_steps=10, cycle_length=50)
        clone.configure(0, 2)
        clone.load(state)
        for key in ("x", "r", "p"):
            assert np.array_equal(getattr(clone, key), getattr(workload, key))
        assert clone.rsold == workload.rsold
        assert clone.iteration == workload.iteration

    def test_state_is_a_copy(self):
        workload = ConjugateGradientWorkload(grid=8)
        workload.configure(0, 1)
        state = workload.state()
        state["x"][:] = 999.0
        assert not np.any(workload.x == 999.0)


class TestValidation:
    def test_more_ranks_than_unknowns(self):
        workload = ConjugateGradientWorkload(grid=2)
        with pytest.raises(ConfigurationError):
            workload.configure(0, 5)

    def test_bad_grid(self):
        with pytest.raises(ConfigurationError):
            ConjugateGradientWorkload(grid=1)

    def test_step_before_configure(self):
        workload = ConjugateGradientWorkload()
        with pytest.raises(ConfigurationError):
            next(workload.step(None, 0))

    def test_uneven_partition_covers_all_rows(self):
        workload = ConjugateGradientWorkload(grid=5)  # 25 rows over 4 ranks
        covered = 0
        for rank in range(4):
            instance = ConjugateGradientWorkload(grid=5)
            instance.configure(rank, 4)
            covered += instance.row_end - instance.row_start
        assert covered == 25
