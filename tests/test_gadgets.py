from __future__ import annotations

import itertools

import pytest

from helpers import admissible_entry, exit_valuations, model_key, reachable_configs
from nbrv.gadgets import (
    LevelContext,
    LevelError,
    ProceduralMachine,
    _Builder,
    init_level,
    reset_chain,
    reset_level,
    restore_shell,
    zero_test_swap,
)
from nbrv.machines import (
    DEC,
    INC,
    CounterMachine,
    CounterOp,
    MachineError,
    cover_bounded,
)

CTX2 = LevelContext.create(2)
LEVEL0 = ("y_0", "z_0", "s_0", "ybar_0", "zbar_0", "sbar_0")
LEVEL1 = ("y_1", "z_1", "s_1", "ybar_1", "zbar_1", "sbar_1")


def entry_at(level: int, **overrides: int) -> dict[str, int]:
    return admissible_entry(CTX2, level, overrides)


def single_exit(pm: ProceduralMachine, entry: dict[str, int], out: str) -> dict[str, int]:
    outs = exit_valuations(pm, entry)
    others = {o: v for o, v in outs.items() if o != out and v}
    assert not others, f"unexpected exits: {others}"
    assert len(outs[out]) == 1, outs[out]
    return outs[out][0]


class TestLevelContext:
    def test_families_disjoint(self):
        ctx = LevelContext.create(3, ("a", "b"))
        names = ctx.all_counters()
        assert len(names) == len(set(names)) == 3 * 6 + 2

    def test_top_level_is_payload(self):
        ctx = LevelContext.create(2, ("b", "a"))
        assert ctx.low(2) == ("a", "b")
        assert ctx.dual(2) == ()

    def test_bounds(self):
        assert [CTX2.bound(i) for i in (0, 1, 2)] == [2, 4, 16]

    def test_payload_name_collision_avoided(self):
        ctx = LevelContext.create(1, ("y_0",))
        assert "y_0" in ctx.machine_counters
        assert ctx.low(0)[0] != "y_0"


class TestSwapContracts:
    @pytest.mark.parametrize("dual", ["ybar_0", "zbar_0"])
    def test_level0_exhaustive(self, dual):
        # Pair sum fixed at the bound, scratch pair initialized, the
        # remaining pair swept over all bounded values.
        pm = zero_test_swap(CTX2, 0, dual)
        work = CTX2.pair(0, dual)
        z_exit, nz_exit = pm.outs
        free = [c for c in ("y_0", "z_0", "ybar_0", "zbar_0")
                if c not in (dual, work)]
        for dual_val in (0, 1, 2):
            for spare in itertools.product((0, 1, 2), repeat=len(free)):
                entry = entry_at(0, sbar_0=2)
                entry[dual] = dual_val
                entry[work] = 2 - dual_val
                for c, v in zip(free, spare):
                    entry[c] = v
                if dual_val == 0:
                    got = single_exit(pm, entry, z_exit)
                    expected = dict(entry)
                    expected[dual], expected[work] = entry[work], 0
                    assert got == expected
                else:
                    got = single_exit(pm, entry, nz_exit)
                    assert got == entry

    def test_level1_exhaustive(self):
        pm = zero_test_swap(CTX2, 1, "ybar_1")
        z_exit, nz_exit = pm.outs
        for dual_val in range(5):
            for zb in range(5):
                for zz in range(5):
                    entry = entry_at(1, sbar_1=4)
                    entry["ybar_1"], entry["y_1"] = dual_val, 4 - dual_val
                    entry["zbar_1"], entry["z_1"] = zb, zz
                    if dual_val == 0:
                        got = single_exit(pm, entry, z_exit)
                        expected = dict(entry)
                        expected["ybar_1"], expected["y_1"] = 4, 0
                        assert got == expected
                    else:
                        got = single_exit(pm, entry, nz_exit)
                        assert got == entry

    def test_boundedness_preserved(self):
        pm = zero_test_swap(CTX2, 1, "ybar_1")
        entry = entry_at(1, sbar_1=4, y_1=4)
        for cfg in reachable_configs(pm, entry):
            vals = dict(zip(pm.counters, cfg.values))
            assert all(vals[c] <= 2 for c in LEVEL0)
            assert all(vals[c] <= 4 for c in LEVEL1)

    def test_level_out_of_range(self):
        with pytest.raises(LevelError):
            zero_test_swap(CTX2, 2, "ybar_1")
        with pytest.raises(LevelError):
            zero_test_swap(CTX2, 0, "ybar_1")


class TestInitContracts:
    def test_level0_exhaustive(self):
        pm = init_level(CTX2, 0)
        for spare in itertools.product((0, 1, 2), repeat=3):
            entry = entry_at(0)
            for c, v in zip(("y_0", "z_0", "s_0"), spare):
                entry[c] = v
            got = single_exit(pm, entry, pm.outs[0])
            expected = dict(entry)
            for c in ("ybar_0", "zbar_0", "sbar_0"):
                expected[c] = 2
            assert got == expected

    def test_level1_from_initialized_level0(self):
        pm = init_level(CTX2, 1)
        entry = entry_at(1)
        got = single_exit(pm, entry, pm.outs[0])
        assert all(got[c] == 4 for c in ("ybar_1", "zbar_1", "sbar_1"))
        assert all(got[c] == entry[c] for c in LEVEL0)

    def test_untouched_outside_level(self):
        ctx = LevelContext.create(1, ("payload",))
        pm = init_level(ctx, 0)
        entry = {c: 0 for c in ctx.all_counters()}
        entry["payload"] = 3
        outs = exit_valuations(pm, entry)
        assert outs[pm.outs[0]][0]["payload"] == 3

    @pytest.mark.parametrize("level", [2, -1])
    def test_level_out_of_range(self, level):
        with pytest.raises(LevelError, match=rf"^level {level} outside 0\.\.1$"):
            init_level(CTX2, level)


class TestResetContracts:
    def test_level0_exhaustive(self):
        pm = reset_level(CTX2, 0)
        for vals in itertools.product((0, 1, 2), repeat=6):
            entry = entry_at(0)
            for c, v in zip(LEVEL0, vals):
                entry[c] = v
            got = single_exit(pm, entry, pm.outs[0])
            assert all(got[c] == 0 for c in LEVEL0)
            assert all(got[c] == entry[c] for c in LEVEL1)

    def test_level1_exhaustive(self):
        pm = reset_level(CTX2, 1)
        for vals in itertools.product(range(5), repeat=6):
            entry = entry_at(1)
            for c, v in zip(LEVEL1, vals):
                entry[c] = v
            got = single_exit(pm, entry, pm.outs[0])
            for c in LEVEL1:
                assert got[c] == max(0, entry[c] - 4), (c, entry, got)
            for c in LEVEL0:
                assert got[c] == entry[c]

    def test_top_level_resets_payload(self):
        ctx = LevelContext.create(1, ("xa", "xb"))
        pm = reset_level(ctx, 1)
        entry = admissible_entry(ctx, 1, {"xa": 3, "xb": 4})
        got = single_exit(pm, entry, pm.outs[0])
        assert got["xa"] == 0 and got["xb"] == 0


class TestResetChain:
    def test_exhaustive_bounded_entries(self):
        ctx = LevelContext.create(1, ("xa", "xb"))
        pm = reset_chain(ctx)
        level0 = ("y_0", "z_0", "s_0", "ybar_0", "zbar_0", "sbar_0")
        for l0 in itertools.product((0, 1, 2), repeat=6):
            for xs in itertools.product((0, 2, 4), repeat=2):
                entry = {c: 0 for c in ctx.all_counters()}
                for c, v in zip(level0, l0):
                    entry[c] = v
                entry["xa"], entry["xb"] = xs
                got = single_exit(pm, entry, pm.outs[0])
                assert got["xa"] == got["xb"] == 0
                assert all(got[c] == 2 for c in ("ybar_0", "zbar_0", "sbar_0"))
                assert all(got[c] == 0 for c in ("y_0", "z_0", "s_0"))

    def test_all_zero_entry(self):
        ctx = LevelContext.create(1)
        pm = reset_chain(ctx)
        got = single_exit(pm, {c: 0 for c in ctx.all_counters()}, pm.outs[0])
        assert got == admissible_entry(ctx, 1)


class TestRestoreShell:
    def toy(self, op_kind: str) -> CounterMachine:
        op = CounterOp(op_kind, "xa")
        return CounterMachine("toy", ["lin", "lf"], ["xa"], "lin", [("lin", op, "lf")])

    def test_coverable_target_stays_coverable(self):
        shell = restore_shell(self.toy(INC), 1, "lf")
        assert shell.is_nbrcm
        assert cover_bounded(shell, "lf", cap=2).is_yes()

    def test_uncoverable_target_stays_uncoverable(self):
        shell = restore_shell(self.toy(DEC), 1, "lf")
        assert cover_bounded(shell, "lf", cap=3).answer == "no"

    def test_size_linear_in_machine_at_fixed_levels(self):
        # The wrapper adds a machine-independent number of locations, so the
        # total stays linear in the wrapped machine for fixed level count.
        # A machine whose locations look like the shell's own must not have
        # any of them merged with a shell location.
        machines = [CounterMachine("toy", ["lin", "lf", "sh_start", "sh_ri_in", "sh_x"],
                                   ["xa"], "lin", [("lin", CounterOp(INC, "xa"), "lf")])]
        for extra in (0, 5, 10):
            locs = ["lin", "lf"] + [f"m{i}" for i in range(extra)]
            transitions = [("lin", CounterOp(INC, "xa"), "lf")]
            transitions += [("lin", CounterOp("nop"), f"m{i}") for i in range(extra)]
            machines.append(CounterMachine("toy", locs, ["xa"], "lin", transitions))
        overhead = [len(restore_shell(m, 1, "lf").locations) - len(m.locations)
                    for m in machines]
        assert len(set(overhead)) == 1, overhead

    def test_output_deterministic(self):
        a = restore_shell(self.toy(INC), 1, "lf")
        b = restore_shell(self.toy(INC), 1, "lf")
        assert model_key(a) == model_key(b)


def test_builder_refuses_a_repeated_location():
    b = _Builder(LevelContext.create(1))
    b.loc("a")
    b.loc("b")
    with pytest.raises(MachineError, match="duplicate location 'a'"):
        b.loc("a")
    assert b.locations == ["a", "b"]


class TestProceduralMachine:
    def test_outs_have_no_outgoing(self):
        with pytest.raises(MachineError):
            ProceduralMachine("bad", ("a", "b"), ("x",),
                              (("b", CounterOp("nop"), "a"),), "a", ("b",))

    def test_exit_determinism(self):
        pm = reset_chain(LevelContext.create(1, ("xa",)))
        entry = {c: 0 for c in pm.counters}
        entry["xa"] = 2
        assert exit_valuations(pm, entry) == exit_valuations(pm, entry)
