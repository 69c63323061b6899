"""EXPLAIN: render the indexed engine's compiled rule plans as text.

The indexed engine never executes a rule body in declaration order --
:mod:`repro.datalog.planner` reorders atoms greedily, schedules
constraints at their earliest ready point, and sweeps universe-ranged
variables one at a time.  This module pretty-prints those plans so a
run's join strategy can be audited without reading planner internals:
one block per rule, showing the full (round 1) plan and every
delta-specialised plan, with the index signature each join step probes.

Step vocabulary
---------------

* ``scan  R(x, y)``            -- no positions bound: full-relation scan
  (index signature ``()``);
* ``probe R(x, y) via [1]=y``  -- hash-index lookup on the bound
  positions (the signature :meth:`RelationIndex.index_for` builds);
* ``probe dR(...)``            -- the same against the per-round delta;
* ``filter x != y`` / ``bind z := x`` -- constraint scheduling;
* ``enumerate u in universe``  -- the paper's universe-ranged variables.
"""

from __future__ import annotations

from repro.datalog.ast import Program, Rule
from repro.datalog.planner import (
    AtomStep,
    ConstraintStep,
    EnumerateStep,
    RulePlan,
    plan_program_rules,
    plan_rule,
)


def _step_lines(plan: RulePlan) -> list[str]:
    lines: list[str] = []
    bound: set = set()
    for number, step in enumerate(plan.steps, start=1):
        if isinstance(step, AtomStep):
            atom = step.atom
            relation = "d" + atom.predicate if step.is_delta else atom.predicate
            rendered = f"{relation}({', '.join(str(a) for a in atom.args)})"
            if step.bound_positions:
                keys = ", ".join(
                    f"[{position}]={atom.args[position]}"
                    for position in step.bound_positions
                )
                action = f"probe {rendered} via {keys}"
            else:
                action = f"scan  {rendered}"
            fresh = sorted(
                str(v) for v in atom.variables() if v not in bound
            )
            bound.update(atom.variables())
            note = f"index={step.bound_positions!r}"
            if fresh:
                note += f"  binds {', '.join(fresh)}"
            lines.append(f"{number:>2}. {action:<44} {note}")
        elif isinstance(step, ConstraintStep):
            literal = step.literal
            if step.binds is not None:
                other = (
                    literal.right
                    if step.binds == literal.left
                    else literal.left
                )
                action = f"bind  {step.binds} := {other}"
                bound.add(step.binds)
            else:
                action = f"filter {literal}"
            lines.append(f"{number:>2}. {action}")
        else:
            assert isinstance(step, EnumerateStep)
            bound.add(step.variable)
            lines.append(
                f"{number:>2}. enumerate {step.variable} in universe"
            )
    return lines


def explain_rule(
    rule: Rule, idb_predicates: frozenset[str], indent: str = "  "
) -> str:
    """The full plan plus every delta plan of one rule."""
    blocks: list[str] = [f"rule: {rule}"]
    blocks.append(indent + "full plan (round 1):")
    for line in _step_lines(plan_rule(rule)):
        blocks.append(indent * 2 + line)
    delta_plans = plan_program_rules(rule, idb_predicates)
    if not delta_plans:
        blocks.append(
            indent + "delta plans: none (EDB-only body; round 1 only)"
        )
    for plan in delta_plans:
        atom = rule.body_atoms()[plan.delta_atom_index]
        blocks.append(
            indent
            + f"delta plan (d{atom.predicate} at body atom "
            + f"{plan.delta_atom_index}):"
        )
        for line in _step_lines(plan):
            blocks.append(indent * 2 + line)
    return "\n".join(blocks)


def explain_program(program: Program, name: str | None = None) -> str:
    """EXPLAIN output for every rule of a program.

    This is what ``repro explain`` prints: the exact plans the default
    (indexed) engine compiles and executes, in rule order.
    """
    title = f"EXPLAIN {name}" if name else "EXPLAIN"
    header = [
        f"{title}: goal {program.goal}, {len(program.rules)} rules, "
        f"IDB {{{', '.join(sorted(program.idb_predicates))}}}, "
        f"EDB {{{', '.join(sorted(program.edb_predicates))}}}",
        "",
    ]
    blocks = [
        explain_rule(rule, program.idb_predicates)
        for rule in program.rules
    ]
    return "\n".join(header) + "\n\n".join(blocks)


def explain_codegen(program: Program, name: str | None = None) -> str:
    """The specialized Python source the codegen engine generates.

    This is what ``repro explain --engine codegen`` prints: per rule,
    the round-1 (full-plan) function and every delta-specialised
    function, exactly as :mod:`repro.datalog.codegen` renders them for
    execution -- same slot numbering, same index parameters, same
    source bytes (rendering is deterministic).
    """
    from repro.datalog.codegen import rule_sources

    title = f"EXPLAIN CODEGEN {name}" if name else "EXPLAIN CODEGEN"
    lines = [
        f"{title}: goal {program.goal}, {len(program.rules)} rules, "
        f"IDB {{{', '.join(sorted(program.idb_predicates))}}}, "
        f"EDB {{{', '.join(sorted(program.edb_predicates))}}}",
        "",
    ]
    for rule_index, (full, deltas) in enumerate(rule_sources(program)):
        lines.append(f"rule {rule_index}: {program.rules[rule_index]}")
        lines.append("")
        lines.append(full.source.rstrip("\n"))
        if not deltas:
            lines.append("")
            lines.append(
                "# delta functions: none (EDB-only body; round 1 only)"
            )
        for __, source in deltas:
            lines.append("")
            lines.append(source.source.rstrip("\n"))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


#: How ``explain_magic`` names each :attr:`MagicRewrite.strategy`.
_STRATEGIES = {
    "classical": "classical magic sets",
    "factored": "factored (reach set over the bound positions, then the "
    "exit rules)",
}


def explain_magic(rewrite, name: str | None = None) -> str:
    """EXPLAIN output for a magic-sets rewrite.

    ``rewrite`` is a :class:`repro.datalog.magic.MagicRewrite`.  Shows
    the adornment analysis first -- the goal binding, which rewrite ran,
    the adorned rules in their sideways-information-passing order, and
    the demand (magic) rules including the seed fact -- then the
    ordinary EXPLAIN of the rewritten program, i.e. the plans the
    engines actually run.
    """
    title = f"EXPLAIN MAGIC {name}" if name else "EXPLAIN MAGIC"
    lines = [
        f"{title}: goal atom {rewrite.goal_atom} "
        f"(adornment {rewrite.adornment})",
        f"  rewrite: {_STRATEGIES[rewrite.strategy]}",
        f"  rewritten goal: {rewrite.adorned_goal}",
        "",
        f"magic (demand) rules, seed first "
        f"[{len(rewrite.magic_rules)}]:",
    ]
    lines += [f"  {rule}" for rule in rewrite.magic_rules]
    lines += [
        "",
        f"adorned rules, guarded [{len(rewrite.adorned_rules)}]:",
    ]
    lines += [f"  {rule}" for rule in rewrite.adorned_rules]
    lines += ["", explain_program(rewrite.program, name="rewritten program")]
    return "\n".join(lines)
