"""Tests for the straight-line program IR."""

import pytest

from repro.codegen.program import (
    Assign,
    Bin,
    Comment,
    Const,
    Emit,
    Input,
    Program,
    Un,
    Var,
    c,
    v,
)
from repro.errors import CodegenError


class TestExpressions:
    def test_operator_overloads(self):
        expr = (v("a") & v("b")) << 1
        assert isinstance(expr, Bin)
        assert expr.op == "<<"
        assert expr.a.op == "&"
        assert expr.b.value == 1

    def test_all_overloads(self):
        a, b = v("a"), v("b")
        assert (a | b).op == "|"
        assert (a ^ b).op == "^"
        assert (a >> 3).op == ">>"
        assert (~a).op == "~"
        assert (-a).op == "-"

    def test_bad_operators_rejected(self):
        with pytest.raises(CodegenError):
            Bin("*", v("a"), v("b"))
        with pytest.raises(CodegenError):
            Un("!", v("a"))

    def test_probe_operators_accepted(self):
        # The probe-lowering pass accumulates counters with ``+`` and
        # ``popcount``; both are first-class IR operators.
        assert Bin("+", v("a"), v("b")).op == "+"
        assert Un("popcount", v("a")).op == "popcount"

    def test_shift_amount_must_be_constant(self):
        with pytest.raises(CodegenError, match="constant"):
            Bin("<<", v("a"), v("b"))
        with pytest.raises(CodegenError, match="constant"):
            Bin("sar", v("a"), v("b"))

    def test_reprs(self):
        assert "Var(a)" in repr(v("a"))
        assert "Const(3)" in repr(c(3))
        assert "V[2]" in repr(Input(2))
        assert "sar" in repr(Bin("sar", v("a"), c(1)))


class TestProgram:
    def make(self):
        p = Program("t", word_width=32, inputs=["A"])
        p.declare("x", 5)
        p.declare("y")
        p.init.append(Assign("x", Input(0)))
        p.body.append(Assign("y", (v("x") & v("y"))))
        p.output.append(Emit(v("y"), ("y", 0)))
        return p

    def test_declare(self):
        p = self.make()
        assert p.state_vars == ["x", "y"]
        assert p.state_init == {"x": 5, "y": 0}
        assert p.is_state("x") and not p.is_state("z")
        with pytest.raises(CodegenError, match="duplicate"):
            p.declare("x")

    def test_declare_temp(self):
        p = self.make()
        assert p.declare_temp("t0") == "t0"
        assert p.declare_temp("t0") == "t0"  # idempotent
        assert p.temp_vars == ["t0"]
        with pytest.raises(CodegenError, match="clashes"):
            p.declare_temp("x")

    def test_word_width_choices(self):
        with pytest.raises(CodegenError):
            Program("t", word_width=12)
        for width in (8, 16, 32, 64):
            assert Program("t", word_width=width).word_mask == (1 << width) - 1

    def test_validate_catches_undeclared(self):
        p = self.make()
        p.body.append(Assign("y", v("ghost")))
        with pytest.raises(CodegenError, match="ghost"):
            p.validate()

    def test_validate_catches_undeclared_dest(self):
        p = self.make()
        p.body.append(Assign("ghost", v("x")))
        with pytest.raises(CodegenError, match="ghost"):
            p.validate()

    def test_validate_catches_undeclared_emit(self):
        p = self.make()
        p.output.append(Emit(v("ghost"), ("g",)))
        with pytest.raises(CodegenError, match="ghost"):
            p.validate()

    def test_stats_counts(self):
        p = Program("t", word_width=32)
        p.declare("a")
        p.declare("b")
        p.body.append(Assign("a", (v("a") & v("b")) << 1))
        p.body.append(Assign("b", -(v("a") >> 31)))
        p.body.append(Comment("note"))
        p.output.append(Emit(~v("a"), ("a",)))
        stats = p.stats()
        assert stats.assignments == 2
        assert stats.shifts == 2
        assert stats.negates == 1
        assert stats.logic_ops == 2  # & and ~
        assert stats.emits == 1
        assert stats.source_lines == 3  # comments not counted
        assert stats.total_ops == 5
        assert stats.as_dict()["shifts"] == 2
        assert "shifts=2" in repr(stats)

    def test_without_output_shares_sections(self):
        p = self.make()
        clone = p.without_output()
        assert clone.output == []
        assert clone.body is p.body
        assert clone.state_vars is p.state_vars
        assert p.output  # untouched

    def test_output_labels(self):
        p = self.make()
        assert p.output_labels() == [("y", 0)]

    def test_input_slot(self):
        p = Program("t", inputs=["A", "B"])
        assert p.input_slot("B") == 1

    def test_repr(self):
        assert "2 vars" in repr(self.make())


class TestInputSlotValidation:
    def test_out_of_range_slot_rejected(self):
        p = Program("t", inputs=["A"])
        p.declare("x")
        p.body.append(Assign("x", Input(3)))
        with pytest.raises(CodegenError, match="slot 3"):
            p.validate()

    def test_in_range_slot_accepted(self):
        p = Program("t", inputs=["A", "B"])
        p.declare("x")
        p.body.append(Assign("x", Bin("&", Input(0), Input(1))))
        p.validate()


class TestCarriedSet:
    """``Program.carried``: the state a pass reads before writing it."""

    @staticmethod
    def _program() -> Program:
        p = Program("carry", word_width=8, inputs=["A"])
        for name in ("acc", "konst", "scratch", "late", "unused"):
            p.declare(name)
        p.declare_temp("t")
        p.init.append(Assign("t", Input(0)))
        # Read before written: the previous pass's value.
        p.body.append(Assign("acc", Bin("^", Var("acc"), Var("t"))))
        # Only ever read: a constant net's variable.
        p.body.append(Assign("scratch", Bin("&", Var("konst"), Var("t"))))
        # Written in the body, then read by the output section.
        p.body.append(Assign("late", Un("~", Var("scratch"))))
        p.output.append(Emit(Var("late"), ("late",)))
        return p

    def test_read_before_write_is_carried(self):
        assert "acc" in self._program().carried()

    def test_read_only_state_is_carried(self):
        assert "konst" in self._program().carried()

    def test_temps_are_never_carried(self):
        p = self._program()
        assert "t" not in p.carried()
        # Even a temp read first in a later pass position stays out.
        p.output.append(Emit(Var("t"), ("t",)))
        assert "t" not in p.carried()

    def test_written_before_output_reads_it_is_not_carried(self):
        carried = self._program().carried()
        assert "late" not in carried
        assert "scratch" not in carried
        assert "unused" not in carried

    def test_state_vars_order(self):
        p = self._program()
        assert p.carried() == ["acc", "konst"]
        assert p.persistent == ["acc", "konst"]

    def test_observable_keeps_every_state_variable(self):
        p = self._program()
        observed = p.observable()
        assert observed.persistent == p.state_vars
        assert observed.carried() == p.carried()
        assert observed.name == p.name
        # The copy widens the layout only; the original keeps its own.
        assert p.persistent == ["acc", "konst"]
        assert observed.without_output().persistent == p.state_vars
        # Without outputs the state is all a pass produces.
        assert p.without_output().persistent == p.state_vars

    def test_interface_state_layout(self):
        interface = self._program().interface()
        assert interface.state_names == ["acc", "konst"]
        assert interface.state_slots == [0, 1]
        assert interface.state_words == 2
        observed = self._program().observable().interface()
        assert observed.state_slots == [0, 1, 2, 3, 4]
        assert observed.state_position[3] == 3
