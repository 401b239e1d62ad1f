"""Import hygiene of the package modules: their syntax trees, and what
importing the package loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import invgen

PACKAGE = Path(invgen.__file__).parent


def _modules() -> list[Path]:
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _unused_imports(path: Path) -> list[str]:
    tree = _tree(path)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_import_leaves_the_process_pool_out():
    # run_survey imports its process pool only when it starts one
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p
    ))
    probe = (
        "import sys, invgen\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_every_module_import_is_used():
    modules = _modules()
    assert len(modules) >= 14
    unused = {p.name: names for p in modules if (names := _unused_imports(p))}
    assert unused == {}


def _definitions(tree: ast.Module):
    """Names a module's top level binds: def, class and NAME = ... targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_module_level_definition_is_used():
    # a use is a load of the name, or of an attribute of that name, in any
    # module of the package, or an entry of the package's __all__
    referenced = set(invgen.__all__)
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
    unused = {}
    for path in _modules():
        if names := [name for name in _definitions(_tree(path)) if name not in referenced]:
            unused[path.name] = names
    assert unused == {}


def _attribute_loads(paths) -> set[str]:
    """Every attribute name loaded (read or called) in the given files."""
    return {
        node.attr
        for path in paths
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_method_is_used():
    # a method, property included, is used when it is loaded as an attribute
    # in the package, in tests/ or in perfbench/ (which drives the package
    # from outside); dunders are called by the language
    root = PACKAGE.parent.parent
    loaded = _attribute_loads(
        [*PACKAGE.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "perfbench").glob("*.py")]
    )
    unused = {}
    for path in _modules():
        for node in _tree(path).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and item.name not in loaded
                ):
                    unused.setdefault(path.name, []).append(f"{node.name}.{item.name}")
    assert unused == {}


def _perm_isinstance_calls(path: Path) -> int:
    """Calls isinstance(x, Perm) or isinstance(x, (..., Perm, ...))."""
    count = 0
    for node in ast.walk(_tree(path)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            count += any(isinstance(n, ast.Name) and n.id == "Perm" for n in names)
    return count


def test_only_group_normalises_perms():
    # Group.element_index is the one Perm-or-index normaliser; perm.py is
    # exempt for Perm.__eq__
    calls = {p.name: n for p in _modules() if (n := _perm_isinstance_calls(p))}
    assert set(calls) <= {"group.py", "perm.py"}, calls
    assert calls.get("perm.py") == 1


def test_only_lattice_questions_build_the_lattice():
    # subgroup_lattice and maximal_subgroups_up_to_conjugacy ask for the
    # lattice itself; the maximal classes never read it, for any group,
    # which tests/test_maximal.py also checks by behaviour
    calls = {
        p.name: sorted(c) for p in _modules() if (c := _calls_by_function(_tree(p), {"_lattice"}))
    }
    assert calls == {
        "subgroups.py": [
            ("maximal_subgroups_up_to_conjugacy", "_lattice"),
            ("subgroup_lattice", "_lattice"),
        ]
    }, calls


def test_only_the_normalizer_search_asks_for_a_lattice_in_subgroups():
    # the maximal-class route reaches a lattice only through the socle
    # that _normalizer_orbits builds as a group of its own
    calls = _calls_by_function(_tree(PACKAGE / "subgroups.py"), {"subgroup_lattice"})
    assert calls == {("_normalizer_orbits", "subgroup_lattice")}


def test_no_subgroup_record_carries_a_maximality_flag():
    # maximal_subgroups_up_to_conjugacy decides maximality itself, so the
    # lattice fills no flag for it
    from invgen.subgroups import SubgroupRecord

    assert "is_maximal" not in SubgroupRecord.__dataclass_fields__
    read = {
        p.name for p in PACKAGE.glob("*.py")
        if any(isinstance(n, ast.Attribute) and n.attr == "is_maximal" for n in ast.walk(_tree(p)))
    }
    assert read == set()


def _asserts(tree: ast.Module) -> list[int]:
    """Lines of assert statements and of raise AssertionError(...)."""
    lines = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Assert):
            lines.append(n.lineno)
        elif isinstance(n, ast.Raise) and n.exc is not None:
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(n.lineno)
    return lines


def test_no_assert_in_package_modules():
    # python -O strips assert statements; a package module raises
    # InvgenError for an internal defect instead, never AssertionError
    asserts = {p.name: lines for p in PACKAGE.glob("*.py") if (lines := _asserts(_tree(p)))}
    assert asserts == {}


def _calls_by_function(tree: ast.Module, names) -> set[tuple[str, str]]:
    """(enclosing function, called name) for each call of a function or
    method in names; the enclosing function is a top-level function or a
    method of a top-level class, named Class.method."""
    scopes = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            scopes.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            scopes += [
                (f"{node.name}.{item.name}", item)
                for item in node.body if isinstance(item, ast.FunctionDef)
            ]
    found = set()
    for name, scope in scopes:
        for call in ast.walk(scope):
            if isinstance(call, ast.Call):
                called = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if called in names:
                    found.add((name, called))
    return found


def test_criteria_run_through_the_block_primitive():
    # criterion_verdicts is the one criterion kernel: the per-problem
    # criteria are blocks of one, and the battery passes whole blocks
    calls = {
        p.name: sorted(c) for p in _modules()
        if (c := _calls_by_function(_tree(p), {"criterion_verdicts"}))
    }
    assert calls == {
        "genlift.py": [
            ("gen_criterion", "criterion_verdicts"),
            ("invgen_criterion", "criterion_verdicts"),
        ],
        "properties.py": [
            ("_check_criterion_soundness", "criterion_verdicts"),
            ("_check_rank_formula", "criterion_verdicts"),
        ],
    }, calls
    # gf.py defines functions only, so no incremental row space can come
    # back, and genlift takes no scalar membership or copy-and-add steps
    classes = [n.name for n in _tree(PACKAGE / "gf.py").body if isinstance(n, ast.ClassDef)]
    assert classes == []
    scalar = _calls_by_function(_tree(PACKAGE / "genlift.py"), {"contains", "residue", "add", "copy"})
    assert scalar == set(), scalar


def test_every_kernel_call_runs_through_one_driver():
    # only _mc_run runs kernel parts, and every job it runs is built, and
    # its inputs checked, by _mc_job: the estimators and the survey share
    # one driver, so no second survey or estimator path can come back
    calls = {
        p.name: sorted(c) for p in _modules()
        if (c := _calls_by_function(_tree(p), {"_mc_part", "_mc_run", "_mc_job"}))
    }
    assert calls == {
        "cheb.py": [
            ("_mc_counts", "_mc_run"),
            ("_mc_run", "_mc_part"),
            ("chebotarev_montecarlo", "_mc_job"),
            ("p_invariable_montecarlo", "_mc_job"),
        ],
        "harness.py": [
            ("_row_head", "_mc_job"),
            ("_survey_rows", "_mc_run"),
        ],
    }, calls


def test_one_cayley_walk_under_the_table_and_the_modules():
    # _cayley_steps is the one breadth-first walk of a Cayley graph: the
    # multiplication table, the module matrices and the derivation
    # expressions are all filled along it
    calls = {
        p.name: sorted(c) for p in _modules()
        if (c := _calls_by_function(_tree(p), {"_cayley_steps"}))
    }
    assert calls == {
        "group.py": [("Group.table", "_cayley_steps")],
        "modlin.py": [
            ("ModuleAction._build_and_verify", "_cayley_steps"),
            ("_compute_derivations", "_cayley_steps"),
        ],
    }, calls


def _cap_raises(tree: ast.Module) -> list[str]:
    """Enclosing function of each raise CapExceeded(...), one per raise."""
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", None) == "CapExceeded":
                up = parent[node]
                while not isinstance(up, (ast.FunctionDef, ast.Module)):
                    up = parent[up]
                sites.append(getattr(up, "name", "<module>"))
    return sorted(sites)


def test_every_cap_is_a_known_one():
    # the group order and degree (the enumeration and both crown-power
    # pre-checks go through the one order check), the Monte Carlo and
    # min_k draw caps and the exhaustive reference mode of coverage; an
    # enumeration with a cap of its own has no place here
    sites = {p.name: s for p in _modules() if (s := _cap_raises(_tree(p)))}
    assert sites == {
        "cheb.py": ["_mc_report", "min_k_for_probability"],
        "coverage.py": ["_invariably_generates_exhaustive"],
        "group.py": ["_check_degree", "_check_order"],
    }, sites


def test_only_group_forms_row_keys():
    # the void view of sorted rows is group.py's element format; other
    # modules hand their rows, in any order, to Group._from_rows
    users = {
        p.name for p in _modules()
        if "_void_view" in {
            n.id if isinstance(n, ast.Name) else n.name
            for n in ast.walk(_tree(p)) if isinstance(n, (ast.Name, ast.alias))
        }
    }
    assert users == {"group.py"}, users


def test_only_groups_unknown_by_their_rows_are_enumerated():
    # Group(...) enumerates: the descriptor loaders and the congruence
    # power; crown powers, quotients and normal subgroups are built from
    # rows they already hold
    calls = {
        p.name: sorted(c) for p in _modules()
        if (c := _calls_by_function(_tree(p), {"Group"}))
    }
    assert calls == {
        "crowns.py": [("build_crown_power_general", "Group")],
        "group.py": [("_agl1_group", "Group"), ("_elemab_group", "Group"), ("load_group", "Group")],
    }, calls
