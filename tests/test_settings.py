"""The settings ratchet: every keyword default, flag default and config
field, pinned.

Settable values count as well as lines (ROADMAP aim 2): each keyword default,
flag default and config field is one more configuration to keep correct. A
change that adds or removes one edits the inventory here, so it shows in the
diff.
"""

import argparse
import ast
import pathlib
from dataclasses import fields

import vesseltopo
from vesseltopo.cli import build_parser
from vesseltopo.flowgen import TrainConfig
from vesseltopo.synth import VesselParams
from vesseltopo.taskgen import DatasetConfig

# (module, function, parameter) of every keyword default in the package
_KEYWORD_DEFAULTS = {
    ("cli", "main", "argv"),
    ("flowgen", "refine_eval", "steps"),
    ("flowgen", "refine_eval", "seed"),
    ("flowgen", "refine_eval", "csv_path"),
    ("synth", "emit_samples", "n_bad"),
    ("synth", "emit_samples", "max_k"),
}

# (subcommand, option) -> the default of every value-taking option that has one
_FLAG_DEFAULTS = {("synth", "count"): 10}

# the fields of each config dataclass, in order: 10, 7 and 7
_CONFIG_FIELDS = {
    VesselParams: ("width", "height", "n_trees", "branch_depth", "branch_prob",
                   "radius_root", "radius_min", "n_loops", "background_noise_sigma",
                   "seed"),
    DatasetConfig: ("out_dir", "per_kind", "width", "height", "seed", "test_fraction",
                    "noise_sigma"),
    TrainConfig: ("steps", "batch_size", "learning_rate", "lam", "patch_size", "seed",
                  "hidden"),
}

_HINT = ("each one is a configuration to keep correct (ROADMAP aim 2): keep a "
         "default or a field only where callers need different values, then "
         "update the inventory in this test")


def _keyword_defaults(node, module: str, scope=()) -> set:
    found = set()
    for child in ast.iter_child_nodes(node):
        name = getattr(child, "name", None)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = child.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):] + [
                arg for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            qualname = ".".join((*scope, name or "<lambda>"))
            found |= {(module, qualname, arg.arg) for arg in named}
        found |= _keyword_defaults(child, module, (*scope, name) if name else scope)
    return found


def test_keyword_defaults_are_the_pinned_inventory():
    package = pathlib.Path(vesseltopo.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        found |= _keyword_defaults(ast.parse(path.read_text()), path.stem)
    assert found == _KEYWORD_DEFAULTS, (
        f"keyword defaults added {sorted(found - _KEYWORD_DEFAULTS)}, removed "
        f"{sorted(_KEYWORD_DEFAULTS - found)}: {_HINT}")


def test_flag_defaults_are_the_pinned_inventory():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {(command, action.dest): action.default
             for command, parser in sub.choices.items()
             for action in parser._actions
             if action.nargs != 0 and action.default is not None}
    assert found == _FLAG_DEFAULTS, f"flag defaults {found}: {_HINT}"


def test_config_fields_are_the_pinned_inventory():
    for config_class, names in _CONFIG_FIELDS.items():
        found = tuple(f.name for f in fields(config_class))
        assert found == names, f"{config_class.__name__} fields {found}: {_HINT}"
