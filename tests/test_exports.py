"""The package's names: every helper it exports has a caller, and the
reduction kernel's private names stay inside `groebner`."""

import ast
import re
from pathlib import Path

import chowcheck

SRC = Path(chowcheck.__file__).resolve().parent


def test_every_exported_helper_has_a_caller_in_the_package():
    # its definition plus at least one use, outside the re-exporting __init__
    text = "\n".join(path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))
                     if path.name != "__init__.py")
    unused = [name for name in chowcheck.__all__ if name != "__version__"
              and len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2]
    assert unused == []


KERNEL = {"_Overflow", "_reduce", "_spoly", "_Packing", "_Reducers"}


def test_no_module_outside_groebner_reaches_into_the_reduction_kernel():
    # groebner owns the packed monomial format: every other module goes
    # through its public names (ImageRows for packed rows), and none imports
    # a kernel name or reads a packing or its guard bits
    users = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "groebner.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("groebner", "chowcheck.groebner"):
                names = {alias.name for alias in node.names} & KERNEL
            elif isinstance(node, ast.Attribute):
                on_groebner = isinstance(node.value, ast.Name) and node.value.id == "groebner"
                names = {node.attr} & ((KERNEL if on_groebner else set()) | {"packing", "guard"})
            else:
                continue
            users.setdefault(path.stem, set()).update(names)
    assert {module: names for module, names in users.items() if names} == {}


def test_one_function_catches_a_guard_bit_overflow():
    # every restart at double width goes through groebner._widened
    assert _owners_in_src(lambda node: isinstance(node, ast.ExceptHandler)
                          and "_Overflow" in ast.dump(node.type)) == {("groebner", "_widened")}


def test_only_groebner_imports_the_numerator_helper():
    # every other module compares Hilbert series through groebner.HilbertSeries
    users = sorted(path.name for path in SRC.glob("*.py") if path.name != "groebner.py"
                   and any(isinstance(node, ast.ImportFrom) and "_add_shifted" in
                           {alias.name for alias in node.names}
                           for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert users == []


def test_only_the_document_reader_calls_parse_document():
    # every data file is read through exprparser.read_document, which checks
    # its kind and names it in every input error; a loader of its own would not
    calls, inside = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            found = {id(call) for call in ast.walk(node) if isinstance(call, ast.Call)
                     and getattr(call.func, "id", getattr(call.func, "attr", None))
                     == "parse_document"}
            calls |= found
            if (isinstance(node, ast.FunctionDef) and node.name == "read_document"
                    and path.name == "exprparser.py"):
                inside |= found
    assert calls and calls == inside


def _owners(tree, match) -> set:
    """The functions of a module, as `function` or `Class.method`, holding a
    node that `match` accepts, a nested function or lambda counting as its
    owner's; None for a node outside every function."""
    owners = set()

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if match(child):
                owners.add(owner)
            if isinstance(child, ast.ClassDef) and owner is None:
                visit(child, None, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef) and owner is None:
                visit(child, prefix + child.name, prefix)
            else:
                visit(child, owner, prefix)

    visit(tree, None, "")
    return owners


def _name(call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _callers(tree, callee) -> set:
    """The functions of a module that call `callee` by name (`_owners`)."""
    return _owners(tree, lambda node: isinstance(node, ast.Call) and _name(node) == callee)


def test_only_the_stratum_and_claim_readers_parse_a_pipeline_text():
    # every stratum and claim text goes through chowpipeline._parsed, which
    # names the text's file and place in an error and keeps a parse only
    # when it succeeds; a second route would skip one or the other
    tree = ast.parse((SRC / "chowpipeline.py").read_text(encoding="utf-8"))
    assert _callers(tree, "_parsed") == {"Stratum._form", "ClaimRunner.parse"}
    assert _callers(tree, "parse_polynomial") == {"_parsed"}


def test_only_the_table_owner_checks_a_table_or_makes_a_number_a_constant():
    # VarTable.own is the one place that rejects a value of another table and
    # turns a number into a constant for a caller; a check of its own would
    # word the error its own way, and a coercion of its own could skip the check
    def table_error(node):
        return isinstance(node, ast.Raise) and any(
            isinstance(leaf, ast.Constant) and "variable table" in str(leaf.value)
            for leaf in ast.walk(node))

    def number_test(node):
        if not (isinstance(node, ast.Call) and _name(node) == "isinstance"
                and len(node.args) == 2):
            return False
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        return any(getattr(kind, "id", None) in ("int", "Fraction") for kind in kinds)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {"VarTable.own"} if path.name == "polyarith.py" else set()
        assert _owners(tree, table_error) == owner, path.name
        assert _owners(tree, number_test) & _callers(tree, "constant") == owner, path.name


def test_only_the_map_reader_splits_a_value_on_an_arrow_or_equals_sign():
    # a `name -> value` or `name = value` item is split by exprparser.split_pairs
    # alone, so every map rejects a name given twice, unknown or left out alike
    splits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "exprparser.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("split", "rsplit", "partition", "rpartition")
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value in ("->", "=")):
                splits.append(f"{path.name}:{node.lineno}")
    assert splits == []


def _owners_in_src(match) -> set:
    """(module, owner) for every function in the package holding a node
    that `match` accepts (`_owners`)."""
    return {(path.stem, owner) for path in sorted(SRC.glob("*.py"))
            for owner in _owners(ast.parse(path.read_text(encoding="utf-8")), match)}


def test_only_the_ideal_runs_buchberger():
    # every basis is made through Ideal.groebner, which caches it per order;
    # a direct run elsewhere would make a basis outside every cache
    assert _owners_in_src(lambda node: isinstance(node, ast.Call)
                          and _name(node) == "buchberger") == {("groebner", "Ideal.groebner")}


def test_only_the_subalgebra_builds_a_block_order():
    # every elimination is Subalgebra's graph basis (map_kernel, eliminate,
    # intersect): a block order built elsewhere would be a second elimination
    def block(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "block"
                and getattr(node.func.value, "id", None) == "MonomialOrder")

    assert _owners_in_src(block) == {("groebner", "Subalgebra.__init__")}
