"""Which ``src/megsim`` functions does no CLI command run?

Imports megsim and runs its command-line interface in this one process
under ``sys.settrace``: the desk ``train``, ``sweep``, ``eval``, ``table`` and
a short ``power`` (from a ``--config`` file), then the paper-arithmetic
``table`` and ``sweep``. It prints every function or method defined in
``src/megsim`` that no command enters. The exit status is 1 when one of
them is not in ``KEEP``, or when a ``KEEP`` entry is entered or no longer
defined, so the table stays exact:

    PYTHONPATH=src python tests/prod_paths.py

It takes about 5 s on a 2-core host, most of it the cold desk train.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import os
import sys
import tempfile
import types

# name -> why it stays in src/ although no command enters it
KEEP = {
    "metrics.mse": "the per-image reference that batch_report computes "
                   "inline; acceptance 05 and the metric tests use it",
    "metrics.psnr": "the reference PSNR; acceptance 05 tests its algebra",
    "config.render_config": "writes a config file that --config reads "
                            "back; CI's round-trip step uses it",
    "seedcodec.transmission_loss": "the loss that the codec gradient checks "
                                   "difference",
    "power_rl.PpoAgent.load": "the reader of the agent files that "
                              "`megsim power` writes",
    "nn.Network.name_at": "labels the element in Adam's errors",
    "nn.Network.param_names": "labels parameters in error messages",
    "nn._Layer.param_names": "labels parameters in error messages",
}

POWER_INI = "[ppo]\nupdate_rounds = 2\n\n[power]\nbudgets = 2.0\n" \
            "eval_traces = 4\n"


def defined_functions(package_dir):
    """(file, first line) -> dotted name of every ``def`` in the package."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) \
                    or const.co_name.startswith("<"):
                continue
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:    # a function body
                found[(const.co_filename, const.co_firstlineno)] = name
            else:                                       # a class body
                walk(const, name + ".")

    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            path = os.path.join(package_dir, name)
            with open(path) as fh:
                walk(compile(fh.read(), path, "exec"), name[:-3] + ".")
    return found


def entered_by_commands(out):
    """(file, first line) of every code object that the import of megsim
    and the commands enter."""
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))

    ini = os.path.join(out, "power.ini")
    with open(ini, "w") as fh:
        fh.write(POWER_INI)
    runs = [[cmd] for cmd in ("train", "sweep", "eval", "table")]
    runs += [["--config", ini, "power"],
             ["--preset", "paper-arithmetic", "table"],
             ["--preset", "paper-arithmetic", "sweep"]]
    sys.settrace(trace)
    try:
        cli = importlib.import_module("megsim.cli")
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(["--out", out] + argv)
            if status != 0:
                raise SystemExit(f"megsim {' '.join(argv)} exited {status}")
    finally:
        sys.settrace(None)
    return entered


def main():
    for key in [k for k in os.environ if k.startswith("MEGSIM_")]:
        del os.environ[key]
    # found without importing megsim, so that its import is traced
    package = importlib.util.find_spec("megsim")
    defined = defined_functions(package.submodule_search_locations[0])
    with tempfile.TemporaryDirectory() as out:
        entered = entered_by_commands(out)
    unentered = sorted(name for where, name in defined.items()
                       if where not in entered)
    for name in unentered:
        print(f"{name}: {KEEP.get(name, 'NO PRODUCTION CALLER')}")
    bad = [name for name in unentered if name not in KEEP]
    stale = sorted(set(KEEP) - set(unentered))
    for name in stale:
        print(f"{name}: in KEEP, but a command enters it or it is gone")
    print(f"{len(defined)} functions, {len(unentered)} not entered, "
          f"{len(bad)} outside KEEP, {len(stale)} stale KEEP entries")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
