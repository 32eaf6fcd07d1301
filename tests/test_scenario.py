from fractions import Fraction as F

import pytest

from albert.errors import ConstraintError, ScenarioParseError, UnresolvedReference
from albert.scenario import execute, parse_scenario

MINIMAL = """
F = Q
D = matrix3(F)
J = first_tits(D, 2)
run axioms(J, samples=10, seed=1)
"""


def test_minimal_scenario():
    rep, env = execute(parse_scenario(MINIMAL))
    assert rep.all_pass
    assert "J" in env


def test_unresolved_reference():
    with pytest.raises(UnresolvedReference):
        parse_scenario("J = first_tits(D2, lambda=2)\n")


def test_redeclared_name_rejected():
    with pytest.raises(ScenarioParseError, match="already declared"):
        parse_scenario("D = matrix3(Q)\nJ = first_tits(D, 2)\nD = matrix3(F5)\n")


def test_zero_lambda_rejected_at_validation():
    with pytest.raises(ConstraintError):
        parse_scenario("D = matrix3(Q)\nJ = first_tits(D, lambda=0)\n")


def test_rho_index_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario("L = Q[x]/(x^3-3*x-1)\nC = cyclic(L, rho=1, b=2)\n")


def test_seed_required():
    scen = parse_scenario("D = matrix3(Q)\nJ = first_tits(D, 2)\nrun axioms(J, samples=5)\n")
    with pytest.raises(ConstraintError):
        execute(scen)
    rep, _ = execute(scen, seed_override=3)
    assert rep.all_pass


def test_unknown_suite():
    with pytest.raises(ScenarioParseError):
        parse_scenario("run bogus(J)\n")


def test_parse_error_has_line():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("D = matrix3(Q)\nJ = first_tits(D, 2\n")
    assert "line 2" in str(err.value)


def test_machine_report_deterministic():
    scen_text = MINIMAL + "run fundamental(J, pairs=5, seed=2)\n"
    r1, _ = execute(parse_scenario(scen_text))
    r2, _ = execute(parse_scenario(scen_text))
    assert r1.render_machine() == r2.render_machine()


def test_field_sugar_and_second_construction():
    scen = parse_scenario("""
K = Q[s]/(s^2-(-1))
B = matrix3(K)
J2 = second_tits(B, conjtrans, u=[[1,0,0],[0,1,0],[0,0,1]], mu=(1;0))
M = aut_stab_second(J2, p=[[(0;1),0,0],[0,(0;-1),0],[0,0,1]], q=[[1,0,0],[0,1,0],[0,0,1]])
run verify_map(M)
""")
    rep, _ = execute(scen)
    assert rep.all_pass


def test_trace_oracle_suite():
    rep, _ = execute(parse_scenario(
        "D = matrix3(Q)\nrun trace_oracle(D, samples=20, seed=5)\n"
    ))
    assert rep.all_pass


def test_jmap_choice_suite():
    rep, _ = execute(parse_scenario(
        "D = matrix3(Q)\nJ = first_tits(D, 2)\n"
        "run jmap_choice(J, c=[[1,1,0],[0,1,0],[0,0,1]])\n"
    ))
    assert rep.all_pass
    lines = rep.render_machine()
    assert "surviving variant: B" in lines


def test_check_path_suite():
    rep, _ = execute(parse_scenario(
        "D = matrix3(Q)\nJ = first_tits(D, 2)\n"
        "P = conj_path(J, a=[[1,0,0],[0,2,0],[0,0,3]])\n"
        "run check_path(P)\n"
    ))
    assert rep.all_pass


def test_split_identity_suite():
    rep, _ = execute(parse_scenario(
        "D = matrix3(Q)\nrun split_identity(D, mu=(2;1/2))\n"
    ))
    assert rep.all_pass
    assert "lambda 2" in rep.render_machine()


def test_cyclic_declaration_accepted():
    rep, env = execute(parse_scenario(
        "L = Q[x]/(x^3-3*x-1)\nC = cyclic(L, rho=[2,0,-1], b=2)\n"
        "run trace_oracle(C, samples=10, seed=6)\n"
    ))
    assert rep.all_pass


def test_utwist_second_construction():
    # u-twisted involution with the matching admissible pair: u = diag(1,1,2)
    # is hermitian for it, and mu = 1+i has norm 2 = N(u)
    rep, _ = execute(parse_scenario("""
K = Q[s]/(s^2-(-1))
B = matrix3(K)
J2 = second_tits(B, utwist(u=[[1,0,0],[0,1,0],[0,0,2]]), u=[[1,0,0],[0,1,0],[0,0,2]], mu=(1;1))
M = str_ext_second(J2, gamma=2, g=[[1,0,0],[0,1,0],[0,0,1]], q=[[1,0,0],[0,1,0],[0,0,1]])
run verify_map(M)
"""))
    assert rep.all_pass


def test_readme_lists_every_signature():
    import re
    from pathlib import Path

    from albert.scenario import CONSTRUCTORS, SUITES

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listed = dict(re.findall(r"^- `(\w+)\((.*)\)`", readme, flags=re.M))
    table = {name: sig.spec for name, sig in {**CONSTRUCTORS, **SUITES}.items()}
    assert listed == table
