"""The estimator registry is the one dispatch path: ``umlr estimate`` on a
CSV file and the Monte-Carlo harness on the same replicate give the same
points, and every registered estimator is reachable from the CLI."""

import ast
import json
from pathlib import Path

import pytest

import umlr
from umlr import DgpConfig, LearnerConfig, generate_replicate, run_monte_carlo
from umlr.cli import _parse_estimators, main
from umlr.estimators import ESTIMATORS

DGP = DgpConfig(n=120, p=4, s=2, gamma_scale=0.4, seed=29)
LAM, L2, CLIP, FOLDS = 2.0, 0.5, (0.05, 0.95), 4


@pytest.fixture(scope="module")
def cli_rows(tmp_path_factory):
    data = generate_replicate(DGP, 0).data
    tmp = tmp_path_factory.mktemp("registry")
    path = tmp / "rep0.csv"
    lines = ["y,t," + ",".join(f"x{j}" for j in range(data.p))]
    for y, t, x in zip(data.y.tolist(), data.t.tolist(), data.X.tolist()):
        lines.append(",".join([repr(y), str(t), *map(repr, x)]))
    path.write_text("\n".join(lines) + "\n")
    out = tmp / "report.json"
    rc = main(["estimate", "--data", str(path), "--estimator", "s,t,x,aipw,dml,psm",
               "--mode", "both", "--bootstrap", "0", "--learner", "ridge",
               "--lam", str(LAM), "--propensity-l2", str(L2), "--clip-lo", str(CLIP[0]),
               "--clip-hi", str(CLIP[1]), "--folds", str(FOLDS), "--caliper", "0.2",
               "--out", str(out)])
    assert rc == 0
    return json.loads(out.read_text())["results"]


def test_cli_points_equal_monte_carlo_records(cli_rows):
    scenario = [(row["estimator"], row["mode"]) for row in cli_rows]
    _, records = run_monte_carlo(DGP, LearnerConfig(kind="ridge", lam=LAM), scenario,
                                 reps=10, B=0, propensity_l2=L2, folds=FOLDS, clip=CLIP,
                                 return_records=True)
    rep0 = {(r["estimator"], r["mode"]): r for r in records if r["rep"] == 0}
    for row in cli_rows:
        record = rep0[(row["estimator"], row["mode"])]
        assert record["error"] is None
        assert row["point"] == record["point"], (row["estimator"], row["mode"])
        if row["estimator"] == "dml":
            assert (row["ci_low"], row["ci_high"]) == (record["ci_low"], record["ci_high"])


def test_rows_carry_the_registered_estimand_and_modes(cli_rows):
    modes = {}
    for row in cli_rows:
        assert row["estimand"] == ESTIMATORS[row["estimator"]].estimand
        modes.setdefault(row["estimator"], []).append(row["mode"])
    # every entry is reachable from the short aliases the CLI lists
    assert {name: tuple(m) for name, m in modes.items()} == \
        {name: entry.modes for name, entry in ESTIMATORS.items()}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_every_alias_resolves_to_its_entry(name):
    aliases = (name, *ESTIMATORS[name].aliases)
    assert _parse_estimators(",".join(a.upper() for a in aliases)) == [name] * len(aliases)


def test_no_module_imports_a_name_it_never_uses():
    # a module other than the package's __init__ (which re-exports) must use
    # every name it imports; a line marked "unused here" keeps a binding that
    # bench/tests traces and is the only exemption
    unused = []
    for path in sorted(Path(umlr.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "unused here" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == []


def test_every_private_function_is_referenced():
    # a module-level private function that no code of the package names
    # (outside its own body) is dead; the public ones are the API
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(umlr.__file__).parent.glob("*.py"))}

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    named = [(node, names(node)) for tree in trees.values() for node in tree.body]
    dead = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_") \
                    or fn.name.startswith("__"):
                continue
            if not any(fn.name in used for node, used in named if node is not fn):
                dead.append(f"{module}:{fn.lineno} {fn.name}")
    assert dead == []
