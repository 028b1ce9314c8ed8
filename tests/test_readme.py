import argparse
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import yaml

import scoregap
from scoregap.cli import build_parser
from scoregap.config import _KNOWN_KEYS, config_from_dict
from scoregap.experiment import CSV_COLUMNS
from scoregap.modelio import MODEL_KEYS

from test_experiment import RESULT_PATHS

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    """The first python block under the README's "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_and_exports_resolve():
    # a fresh interpreter, so the block sees only what it imports itself
    src = str(Path(scoregap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", quick_start_code()], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "'uI1_star'" in out.stdout and "'do_no_harm'" in out.stdout
    assert [name for name in scoregap.__all__ if not hasattr(scoregap, name)] == []


def test_command_line_examples_name_every_subcommand():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("scoregap ")}
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert documented == set(subparsers.choices)


def test_config_format_examples_load():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Experiment config format"):text.index("## Model file format")]
    blocks = re.findall(r"```yaml\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    for block in blocks:
        config_from_dict(yaml.safe_load(block))


def test_model_file_keys_are_documented():
    # every backticked span in the model file section is an accepted key, and every key is there
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Model file format"):text.index("## Dataset preparation")]
    assert set(re.findall(r"`([^`]+)`", section)) == MODEL_KEYS


def test_result_keys_are_documented():
    # every backticked span in the result document section is a pinned key or a CSV column, and each is there
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Result document"):text.index("## Experiment config format")]
    keys = {key for path in RESULT_PATHS for key in path.split(".") if key != "*"}
    assert set(re.findall(r"`([^`]+)`", section)) == keys | set(CSV_COLUMNS)


def test_box_references_resolve():
    # every backticked `module.name` in the module tour names something that exists, and so does
    # every `Class.attr` of an exported class; a PopulationModel caches its values on the instance
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## What is in the box"):text.index("## Install")]
    spans = re.findall(r"`([^`]+)`", section)
    submodules = {info.name for info in pkgutil.iter_modules(scoregap.__path__)}
    references = [ref for span in spans for ref in re.findall(r"^(\w+)\.(\w+)", span) if ref[0] in submodules]
    attributes = [ref for span in spans for ref in re.findall(r"^([A-Z]\w*)\.(\w+)", span)]
    assert references and attributes
    owners = {"PopulationModel": scoregap.disparity_example(0.5)}
    missing = [f"{module}.{name}" for module, name in references
               if not hasattr(importlib.import_module(f"scoregap.{module}"), name)]
    missing += [f"{cls}.{name}" for cls, name in attributes
                if not hasattr(owners.get(cls) or getattr(scoregap, cls), name)]
    assert missing == []


def test_config_keys_and_flags_are_documented():
    # every config key is in the config section, and the command-line section names exactly the flags there are
    text = README.read_text(encoding="utf-8")
    config_section = text[text.index("## Experiment config format"):text.index("## Model file format")]
    prose = re.sub(r"```.*?```", "", config_section, flags=re.S)
    assert _KNOWN_KEYS - set(re.findall(r"`([^`]+)`", prose)) == set()
    cli_section = text[text.index("## Command line"):text.index("## Result document")]
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag for parser in subparsers.choices.values() for action in parser._actions
             for flag in action.option_strings if flag.startswith("--") and flag != "--help"}
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", cli_section)) == flags
