"""The benchmark traces prismflow functions by name; a rename must fail
here rather than inside a benchmark run, and the training step must
reach each term through the name it is traced by. The package's modules
import nothing they do not use, and define nothing that no code of the
package uses, only the model and the numerics core spell a parameter
block's name, only `errors.py` spells the integer and finite-real rules,
only `experts.py` spells the operator bank's layout, the sampling and
`diagnose` flags take their defaults from the configs, every config is
checked once, when it is made, `trainer.fit` refuses no setting itself,
each `unknown ...` refusal is raised from one place, no module calls
`np.unique`, only `checkpoint.py` spells the line-file rule, and only
`numcore.py` touches a `.version` attribute."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import prismflow.trainer as trainer_module
from prismflow.model import ModelConfig, PrismFlowModel
from prismflow.numcore import RngStream

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = ROOT / "src" / "prismflow"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    for module, names in spans.TARGETS.items():
        mod = importlib.import_module(f"prismflow.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


@pytest.mark.parametrize("n_experts", [4, 1])
def test_the_spans_time_each_objective_term(monkeypatch, n_experts):
    """Under `trainer.total_loss` the spans are the trunk pass, the three
    terms (with the router pass before the WTA term at K >= 2 only) and
    the encoder backward; the decoder backward inside `router.wta_loss`
    takes the B winner rows, every one of them live."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    model = PrismFlowModel.init(ModelConfig(
        seq_len=8, channels=2, n_experts=n_experts, latent_dim=4,
        hidden_dim=8, dec_hidden=8, router_hidden=8), RngStream(0))
    gen = RngStream(1).generator()
    x0, x1 = gen.standard_normal((2, 4, 8, 2))
    rec = spans.Recorder()
    patches = spans.install(rec)
    try:
        rec.active = True
        trainer_module.total_loss(model, x0, x1, gen.uniform(size=4),
                                  trainer_module.TrainConfig())
    finally:
        rec.active = False
        spans.uninstall(patches)
    names = [s.name for s in rec.spans]
    assert names.count("trainer.total_loss") == 1
    top = names.index("trainer.total_loss")
    routed = ["router.route"] if n_experts > 1 else []
    assert [s.name for s in rec.spans if s.parent == top] == [
        "flowpath.encode", "flowpath.cfm_loss", *routed, "router.wta_loss",
        "router.balance_loss_and_grads", "numcore.mlp_gradients"]
    wta = names.index("router.wta_loss")
    assert [s.attrs for s in rec.spans if s.parent == wta
            and "decoder_rows" in (s.attrs or {})] == [
        {"rows": 4, "decoder_rows": 4, "useful_rows": 4}]


# (module, function, position, name) of every argument that a `BEFORE` or
# `AFTER` hook in bench/spans.py reads, by position or else by name
HOOK_ARGUMENTS = (
    ("router", "wta_loss", 0, "model"),
    ("sampler", "residual_velocity_step", 3, "cfg"),
    ("numcore", "mlp_apply", 1, "x"),
    ("numcore", "mlp_gradients", 0, "net"),
    ("numcore", "mlp_gradients", 2, "upstream"),
    ("datasets", "load_csv_windows", 0, "path"),
    ("datasets", "save_csv_windows", 1, "path"),
    ("checkpoint", "load_checkpoint", 0, "path"),
    ("checkpoint", "save_checkpoint", 0, "path"),
)


def test_every_hook_argument_is_where_the_hook_reads_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    hooked = set(spans.BEFORE) | set(spans.AFTER)
    assert hooked == {f"{m}.{f}" for m, f, _, _ in HOOK_ARGUMENTS}
    for module, name, pos, arg in HOOK_ARGUMENTS:
        fn = getattr(importlib.import_module(f"prismflow.{module}"), name)
        params = list(inspect.signature(fn).parameters)
        assert params[pos:pos + 1] == [arg], f"{module}.{name}{params}"


def unused_imports(source: str) -> list:
    """Names a module imports and never reads, nor lists in `__all__`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_imports_are_found():
    source = ("from .errors import NumericError, ShapeError\n"
              "import numpy as np\nimport os.path\n"
              "__all__ = ['ShapeError']\nnp.zeros(1)\n")
    assert unused_imports(source) == ["NumericError (line 1)", "os (line 3)"]


def test_no_module_imports_a_name_it_does_not_use():
    for path in sorted(SRC.glob("*.py")):
        assert unused_imports(path.read_text()) == [], path.name


def unread_parameters(source: str) -> list:
    """Parameters of functions and lambdas that their bodies never read,
    `self` and `cls` aside."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unread += [f"{name}({p.arg}) (line {node.lineno})" for p in params
                   if p.arg not in read | {"self", "cls"}]
    return unread


def test_unread_parameters_are_found():
    source = ("def f(self, a, b, *c, d=1, **e):\n    return a + d\n"
              "def g(cls, x):\n    x = 2\n    return lambda y, z: z\n")
    assert unread_parameters(source) == [
        "f(b) (line 1)", "f(c) (line 1)", "f(e) (line 1)",
        "g(x) (line 3)", "lambda(y) (line 5)"]


def test_every_parameter_is_read():
    for path in sorted(SRC.glob("*.py")):
        assert unread_parameters(path.read_text()) == [], path.name


def top_level_names(source: str) -> list:
    """Names a module defines at its top level: functions, classes and
    assigned names, dunders aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def names_in_code(source: str) -> set:
    """Names that code reads or calls: identifiers not being assigned,
    and attribute names. A definition or an import is not a use."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def unused_names(sources: dict) -> dict:
    """Per module of `sources` (file name to text), its top-level names
    that no code of `sources` reads or calls."""
    used = set().union(*map(names_in_code, sources.values()))
    return {name: [n for n in top_level_names(text) if n not in used]
            for name, text in sources.items()}


def test_unused_top_level_names_are_found():
    """`helper` has a caller only in a test, which the rule does not
    read: it is flagged with the name no code uses."""
    source = ("from .errors import ShapeError\nLIMIT = 3\nclass Old:\n"
              "    pass\ndef f(x):\n    return x.g\ndef g():\n    pass\n"
              "def helper():\n    pass\nf(LIMIT)\n")
    test = "from m import helper\ndef test_helper():\n    helper()\n"
    assert top_level_names(source) == ["LIMIT", "Old", "f", "g", "helper"]
    assert "helper" in names_in_code(test)
    assert unused_names({"m.py": source}) == {"m.py": ["Old", "helper"]}


def test_every_top_level_name_is_used_somewhere():
    """Every name a module of the package defines has a use in the
    package itself, with no list of exemptions: a function that only
    tests or the bench call is a test-only oracle and lives in `tests/`."""
    unused = unused_names({path.name: path.read_text()
                           for path in sorted(SRC.glob("*.py"))})
    assert {name: n for name, n in unused.items() if n} == {}


# a parameter block's name in a string, `{}` standing for each f-string
# placeholder: a net's prefix alone, a net's layer block, or an expert's
_NET = r"(?:encoder|head|projector|decoder|router)\."
BLOCK_NAME = re.compile("^" + _NET + "$|\\b" + _NET + r"[Wb](?:\d|\{\})"
                        r"|\bexpert(?:\d+|\{\})\.")


def block_name_strings(source: str) -> list:
    """Strings and f-strings of a module, docstrings aside, that spell a
    parameter block's name."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)):
            skip.add(id(body[0].value))  # a docstring
        if isinstance(node, ast.JoinedStr):
            skip |= {id(v) for v in node.values}  # read with the f-string
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            text = "".join(v.value if isinstance(v, ast.Constant) else "{}"
                           for v in node.values)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            text = node.value
        else:
            continue
        if BLOCK_NAME.search(text):
            found.append(f"{text!r} (line {node.lineno})")
    return found


def test_block_name_strings_are_found():
    source = ('def f(k, i):\n    """Adds into decoder.W0 and expert{k}.S."""\n'
              '    g["head."], g[f"expert{k}.R"], g[f"router.W{i}"]\n'
              '    g["encoder.b1"], g[f"expert{k}.{i}"]\n'
              '    raise E(f"expert {k} in the head.", "router.balance")\n'
              '    return f"expert{k},{i}", "decoder"\n')
    assert block_name_strings(source) == [
        "'head.' (line 3)", "'expert{}.R' (line 3)", "'router.W{}' (line 3)",
        "'encoder.b1' (line 4)", "'expert{}.{}' (line 4)"]


def test_only_the_model_and_the_core_spell_block_names():
    """The parameter layout is decided in `model.param_layout` and
    `numcore.mlp_shapes`; every other module reaches a block through the
    model's views, or through `Workspace.grad` for its gradient."""
    for path in sorted(SRC.glob("*.py")):
        if path.name not in ("model.py", "numcore.py"):
            assert block_name_strings(path.read_text()) == [], path.name


def value_rule_spellings(source: str) -> list:
    """Imports of `numbers` and reads of `float_info` in a module: the
    integer and finite-real rules, spelled where they are decided."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] + [a.name for a in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name in ("numbers", "float_info")]
    return found


def test_value_rule_spellings_are_found():
    source = ("import math, numbers\nfrom sys import float_info\n"
              "from numbers import Real\nimport sys\n"
              "big = sys.float_info.max\nok = math.isfinite(big)\n")
    assert value_rule_spellings(source) == [
        "numbers (line 1)", "float_info (line 2)", "numbers (line 3)",
        "float_info (line 5)"]


def test_only_errors_spells_the_value_rules():
    """`errors.check_int` and `errors.check_real` decide what an integer
    and a finite real setting are; every config, seed and generator
    calls them."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            assert value_rule_spellings(path.read_text()) == [], path.name


def validate_calls(source: str) -> list:
    """The receiver of every `.validate()` call of a module, as written."""
    return [ast.unparse(node.func.value)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "validate"]


def test_validate_calls_are_found():
    source = ("def f(cfg, cond, m):\n    cfg.validate()\n"
              "    cond.validate()\n    m.cfg.validate(1)\n"
              "    return validate(cond)\n")
    assert validate_calls(source) == ["cfg", "cond", "m.cfg"]


def test_configs_are_checked_once_when_they_are_made():
    """Every config dataclass is frozen and checks itself when it is made,
    as `RngStream` does, so no call checks one again. Only a
    `ConditionMask`, whose arrays can change after it is made, has a
    `validate` that its caller runs."""
    classes = {cls for path in sorted(SRC.glob("*.py"))
               for cls in vars(importlib.import_module(
                   f"prismflow.{path.stem}")).values()
               if isinstance(cls, type)
               and cls.__module__ == f"prismflow.{path.stem}"}
    configs = {cls for cls in classes if dataclasses.is_dataclass(cls)
               and cls.__name__.endswith(("Config", "Spec"))}
    assert {cls.__name__ for cls in configs} >= {
        "TrainConfig", "ModelConfig", "SamplerConfig", "DiagnosticSpec"}
    for cls in configs:
        assert cls.__dataclass_params__.frozen, cls.__name__
        cfg = cls()
        field = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, getattr(cfg, field))
    assert [cls.__name__ for cls in classes
            if "validate" in vars(cls)] == ["ConditionMask"]
    calls = {path.name: validate_calls(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: c for name, c in calls.items() if c} == {
        "sampler.py": ["cond"]}


def config_error_raises(source: str, name: str) -> list:
    """Every `raise` of a `ConfigError` in the body of the module's
    function `name`, nested code included."""
    def config_error(exc):
        exc = exc.func if isinstance(exc, ast.Call) else exc
        return getattr(exc, "id", getattr(exc, "attr", None)) == "ConfigError"

    return [f"line {n}" for n in sorted(
        node.lineno for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef) and fn.name == name
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise) and node.exc is not None
        and config_error(node.exc))]


def test_config_error_raises_are_found():
    source = ("def fit(cfg):\n    if cfg.a:\n        raise ConfigError('a')\n"
              "    check(cfg)\n    raise errors.ConfigError\n"
              "def check(cfg):\n    raise ConfigError('b')\n"
              "def fit_all(cfg):\n    raise ConfigError('c')\n"
              "def other(cfg):\n    raise ValueError('d')\n")
    assert config_error_raises(source, "fit") == ["line 3", "line 5"]
    assert config_error_raises(source, "other") == []


def test_fit_refuses_no_setting_itself():
    """Every refusal of training settings is a row of the one table in
    `trainer.check_settings`, checked by its one `raise`, which `fit`
    calls before the first step; a new bound is a new row, not another
    `if` block in `fit`."""
    source = (SRC / "trainer.py").read_text()
    assert config_error_raises(source, "fit") == []
    assert len(config_error_raises(source, "check_settings")) == 1


def unknown_refusals(source: str) -> list:
    """Every `ConfigError` or `PrismFlowError` a module raises whose
    message starts with `unknown `, by its text up to the first
    placeholder, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and node.exc.args):
            continue
        fn, msg = node.exc.func, node.exc.args[0]
        head = msg.values[0] if isinstance(msg, ast.JoinedStr) else msg
        if (getattr(fn, "id", getattr(fn, "attr", None)) in (
                "ConfigError", "PrismFlowError")
                and isinstance(head, ast.Constant)
                and str(head.value).startswith("unknown ")):
            found.append((node.lineno, head.value.strip()))
    return [f"{text} (line {line})" for line, text in sorted(found)]


def test_unknown_refusals_are_found():
    source = ("def f(a, k):\n    if a:\n"
              "        raise ConfigError(f'unknown activation {a!r}')\n"
              "    raise errors.PrismFlowError(f'unknown metric {k!r} x')\n"
              "def g(m):\n    raise ConfigError('unknown mode')\n"
              "    raise ValueError(f'unknown kind {m}')\n"
              "    raise ConfigError(f'{m} is unknown')\n")
    assert unknown_refusals(source) == ["unknown activation (line 3)",
                                        "unknown metric (line 4)",
                                        "unknown mode (line 6)"]


def test_each_unknown_name_is_refused_in_one_place():
    """A name that a table or config decides (an activation, a lambda
    schedule, a load mode, ...) is refused where it enters, once; code
    that reads it later indexes the table without checking it again."""
    where = {}
    for path in sorted(SRC.glob("*.py")):
        for found in unknown_refusals(path.read_text()):
            prefix, line = found.rsplit(" (", 1)
            where.setdefault(prefix, []).append(f"{path.name} ({line}")
    assert {p: w for p, w in where.items() if len(w) > 1} == {}
    assert {"unknown activation", "unknown lambda schedule"} <= set(where)


def is_bank(node) -> bool:
    """Whether an expression is the operator bank as written: a name
    `ops`, or an `operators()` call."""
    if isinstance(node, ast.Call):
        fn = node.func
        return getattr(fn, "attr", getattr(fn, "id", None)) == "operators"
    return isinstance(node, ast.Name) and node.id == "ops"


def bank_reshapes(source: str) -> list:
    """Every `.reshape` call of a module on the operator bank."""
    return [f"{ast.unparse(node)} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "reshape" and is_bank(node.func.value)]


def test_bank_reshapes_are_found():
    source = ("def f(model, ops, x):\n    a = ops.reshape(-1, 4)\n"
              "    b = model.operators().reshape(2, -1)\n"
              "    c = x.reshape(3, 4)\n    d = model.ops.reshape(1)\n"
              "    e = model.operators.reshape(1)\n"
              "    return operators().reshape(4), a, b, c, d, e\n")
    assert bank_reshapes(source) == [
        "ops.reshape(-1, 4) (line 2)",
        "model.operators().reshape(2, -1) (line 3)",
        "operators().reshape(4) (line 7)"]


def test_only_experts_spells_the_bank_layout():
    """The layout [A_1^T ... A_K^T] of the operator bank is decided in
    `experts.expert_bank`; training and sampling both take it from there."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "experts.py":
            assert bank_reshapes(path.read_text()) == [], path.name


# flags whose defaults are fields of `SamplerConfig` or `DiagnosticSpec`
CONFIG_FLAGS = ("--steps", "--gamma", "--eta-g", "--c", "--w", "--n")


def is_literal(node) -> bool:
    """Whether an expression is a literal: a constant, a signed number or
    a container of them."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def literal_flag_defaults(source: str) -> list:
    """`add_argument` calls of a module for a flag of CONFIG_FLAGS whose
    default is written as a literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument" and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in CONFIG_FLAGS):
            continue
        found += [f"{node.args[0].value}={ast.unparse(k.value)} "
                  f"(line {node.lineno})" for k in node.keywords
                  if k.arg == "default" and is_literal(k.value)]
    return found


def test_literal_flag_defaults_are_found():
    source = ('p.add_argument("--steps", type=int, default=100)\n'
              'p.add_argument("--gamma", default=SamplerConfig.gamma)\n'
              'p.add_argument("--n", type=int, required=True)\n'
              'p.add_argument("--seed", type=int, default=0)\n'
              'p.add_argument("--w", default=-0.5)\n')
    assert literal_flag_defaults(source) == ["--steps=100 (line 1)",
                                             "--w=-0.5 (line 5)"]


def test_config_flags_take_their_defaults_from_the_configs():
    """`SamplerConfig` and `DiagnosticSpec` hold the one copy of each
    default that a sampling or `diagnose` flag shares with them."""
    assert literal_flag_defaults((SRC / "cli.py").read_text()) == []


def unique_calls(source: str) -> list:
    """Every call of a module to numpy's `unique`, as `np.unique` or
    `numpy.unique`."""
    return [f"{ast.unparse(node.func)} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and ast.unparse(node.func.value) in ("np", "numpy")]


def test_unique_calls_are_found():
    source = ("import numpy\nimport numpy as np\ndef f(x, s):\n"
              "    a = np.unique(x)\n"
              "    b = numpy.unique(x, return_counts=True)\n"
              "    c, d = s.unique(), sorted(set(x.tolist()))\n"
              "    return np.unique\n")
    assert unique_calls(source) == ["np.unique (line 4)",
                                    "numpy.unique (line 5)"]


def test_no_module_calls_np_unique():
    """`np.unique`'s first call in a process imports numpy.ma, about 10 ms
    that every CLI process would pay once; `sorted(set(a.tolist()))`
    gives the same list."""
    for path in sorted(SRC.glob("*.py")):
        assert unique_calls(path.read_text()) == [], path.name


def line_file_joins(source: str) -> list:
    """Every `"\\n".join(...) + "\\n"`: the line-file rule spelled out."""
    def newline(node):
        return isinstance(node, ast.Constant) and node.value == "\n"

    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Attribute)
            and node.left.func.attr == "join"
            and newline(node.left.func.value) and newline(node.right)]


def test_line_file_joins_are_found():
    source = ("def f(rows, a):\n"
              "    x = '\\n'.join(rows) + '\\n'\n"
              "    y = '\\n\\n'.join(rows) + '\\n'\n"
              "    z = ','.join(rows) + '\\n'\n"
              "    return \"\\n\".join(map(str, a)) + \"\\n\"\n")
    assert line_file_joins(source) == ["line 2", "line 5"]


def test_only_checkpoint_spells_the_line_file_rule():
    """Every report, sidecar and CSV of lines goes through
    `checkpoint.atomic_write_lines`."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "checkpoint.py":
            assert line_file_joins(path.read_text()) == [], path.name


def version_attributes(source: str) -> list:
    """Every read or write of a `.version` attribute in a module."""
    return [f"{ast.unparse(node)} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "version"]


def test_version_attributes_are_found():
    """Attributes only: `__version__` and a local `version` are names."""
    source = ("from . import __version__\nversion = 1\n"
              "def f(net, tape, header):\n    net.store.version += 1\n"
              "    header['version'] = version\n"
              "    return tape.version == net.version, __version__\n")
    assert version_attributes(source) == [
        "net.store.version (line 4)", "tape.version (line 6)",
        "net.version (line 6)"]


def test_only_the_core_dates_tapes():
    """`numcore.adam_update` counts each step in its store's `version`,
    and `numcore.mlp_gradients` refuses a tape of an older count: no other
    module bumps a count or reads one."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "numcore.py":
            assert version_attributes(path.read_text()) == [], path.name
