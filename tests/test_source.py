"""Source-level checks on src/trialbench (ROADMAP aim 2)."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "trialbench"

# Reached only by tests, but hooked by name in perfbench/tracer.py, whose
# bench-smoke check fails on a missing hook; ROADMAP item 3 retires those hooks.
TRACER_PINNED = {("exact", "min_achievable_p"), ("exact", "p_strong"), ("exact", "p_weak")}


def test_every_public_src_name_has_a_src_reference():
    """A public top-level function or class that nothing in src reads exists only for
    tests or a future feature. An import, such as a package __init__ re-export, is
    not a read, and neither is a reference from inside the definition itself."""
    defined = set()
    referenced = set()
    for path in SRC.rglob("*.py"):
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined.add((module, own))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    referenced.add(name)
    unreferenced = {(module, name) for module, name in defined if name not in referenced}
    assert unreferenced == TRACER_PINNED, sorted(unreferenced ^ TRACER_PINNED)


def test_every_defaulted_parameter_is_passed_in_src():
    """A parameter default earns its place when one src or perfbench call passes the
    parameter and another relies on the default: a default no call relies on is a
    required argument, and one no call overrides is a setting only tests change. A call
    matches by name; it passes the parameter by keyword or by position, and relies on
    the default otherwise. A call through *args or **kwargs that does not name the
    parameter counts as both."""
    defaults = {}  # (module, function, parameter) -> positional parameter names
    calls = []
    for path in [*SRC.rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        if not path.is_relative_to(SRC):
            continue
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args][id(node) in methods:]
            named = positional[len(positional) - len(args.defaults):] if args.defaults else []
            named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for name in named:
                defaults[(module, node.name, name)] = positional

    def uses(call, name, positional):
        """Whether call passes the parameter, relies on its default, or may do both."""
        if any(k.arg == name for k in call.keywords):
            return {"passes"}
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords):
            return {"passes", "relies"}
        if name in positional and positional.index(name) < len(call.args):
            return {"passes"}
        return {"relies"}

    unearned = [
        key for key, positional in defaults.items()
        if set().union(*(uses(call, key[2], positional) for call in calls
                         if getattr(call.func, "id", getattr(call.func, "attr", None)) == key[1]))
        != {"passes", "relies"}
    ]
    assert unearned == [], ", ".join(map(".".join, sorted(unearned)))


def test_every_tracer_hook_resolves():
    """perfbench/tracer.py wraps src functions by module path and name; a renamed or
    moved one must fail here, not only in a traced benchmark run. Nothing is installed."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in tracer.HOOKS
               if not hasattr(tracer._resolve(owner), attr)]
    assert missing == []


def test_no_src_module_imports_scipy():
    """numpy is the only runtime dependency; scipy is a test reference only, so no
    src module may import it, at the top or inside a function."""
    importers = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(path.relative_to(SRC).as_posix())
    assert importers == []


def _writes_a_file(call: ast.Call) -> bool:
    """Whether call writes to the file system: Path.write_text/write_bytes, any mkdir,
    os.replace/rename, or open in a mode other than reading (a mode that is not a
    literal counts as writing)."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes", "mkdir", "makedirs"):
        return True
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id == "os" and name in ("replace", "rename")):
        return True
    if name != "open":
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[1] if len(call.args) > 1 else ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_only_formats_writes_files():
    """Every output goes through formats.write_lines, which writes <path>.tmp and renames
    it over the target; a module writing on its own could leave a cut-off file."""
    writers = sorted(
        f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
        for path in SRC.rglob("*.py") if path.name != "formats.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _writes_a_file(node))
    assert writers == []
