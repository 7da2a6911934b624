"""Importing diamrisk loads numpy's OpenBLAS single-threaded, unless the user
chose a thread count. Each test starts a fresh interpreter, because OpenBLAS
reads its thread count once, when numpy is first imported, and the test
process has imported numpy already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diamrisk
from diamrisk.harness import default_experiment_dict, experiment_config_from_dict
from diamrisk.mlp import init_params

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(diamrisk.__file__).resolve().parents[1])

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads through /proc/self/task"
)


def _env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def _python(code, env):
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


THREADS_AFTER_A_PRODUCT = """
import os
import diamrisk
import numpy as np
np.ones((300, 96)) @ np.ones((96, 96))
print(len(os.listdir("/proc/self/task")))
"""


@needs_proc
def test_blas_runs_on_the_calling_thread_by_default():
    assert _python(THREADS_AFTER_A_PRODUCT, _env()).strip() == "1"


@needs_proc
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts one thread per core at most")
def test_a_users_openblas_thread_count_wins():
    assert _python(THREADS_AFTER_A_PRODUCT, _env(OPENBLAS_NUM_THREADS="2")).strip() == "2"


ENVIRONMENT_AROUND_THE_IMPORT = """
import json, os, subprocess, sys
before = dict(os.environ)
import diamrisk
child = subprocess.run([sys.executable, "-c", "import json, os; print(json.dumps(dict(os.environ)))"],
                       capture_output=True, text=True, check=True).stdout
print(json.dumps([before, dict(os.environ), json.loads(child)]))
"""


@pytest.mark.parametrize("extra", [{}, {"OMP_NUM_THREADS": "3"}])
def test_import_leaves_the_environment_as_it_was(extra):
    before, after, child = json.loads(_python(ENVIRONMENT_AROUND_THE_IMPORT, _env(**extra)))
    assert after == before
    assert {k: v for k, v in child.items() if k in THREAD_VARS} == extra


def test_importing_the_cli_loads_no_thread_pool_or_logging():
    # Only landscape_histogram's max_workers > 1 branch, which no subcommand
    # takes, imports the pool; its import also pulls in logging.
    code = "import sys, diamrisk.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    assert _python(code, _env()).strip() == "[]"


LANDSCAPE_THEN_COUNT = """
import os, sys
from diamrisk.cli import cli_main
code = cli_main(["landscape", "--config", "config.json", "--checkpoint", "w.json",
                 "--gamma", "5", "--n", "40", "--out", "out"])
print(code, len(os.listdir("/proc/self/task")), sorted({"concurrent.futures", "logging"} & set(sys.modules)))
"""


@needs_proc
def test_landscape_ends_on_one_thread_without_a_pool_or_logging(tmp_path):
    # The histogram's draws run on one worker thread, which must be joined
    # before the command returns; no executor (and so no logging) is loaded.
    config = default_experiment_dict(0)
    (tmp_path / "config.json").write_text(json.dumps(config))
    init_params(experiment_config_from_dict(config).mlp_spec(), np.random.default_rng(0)).save(tmp_path / "w.json")
    done = subprocess.run([sys.executable, "-c", LANDSCAPE_THEN_COUNT], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 1 []"


def test_landscape_histogram_is_the_same_under_any_thread_count(tmp_path):
    config = default_experiment_dict(0)
    (tmp_path / "config.json").write_text(json.dumps(config))
    spec = experiment_config_from_dict(config).mlp_spec()
    init_params(spec, np.random.default_rng(0)).save(tmp_path / "w.json")
    hists = []
    for name, env in (("default", _env()), ("two", _env(OPENBLAS_NUM_THREADS="2"))):
        argv = ["landscape", "--config", "config.json", "--checkpoint", "w.json",
                "--gamma", "5", "--n", "100", "--out", name]
        done = subprocess.run([sys.executable, "-m", "diamrisk.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        hists.append((tmp_path / name / "hist.csv").read_bytes())
    assert hists[0] == hists[1]
