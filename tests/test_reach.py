import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reach.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_commands_reach_every_function_but_the_kept_ones():
    # a function that only tests call is deleted, or kept with its reason in KEPT
    reach = load_script()
    _, missed = reach.unreached(ROOT)
    assert set(missed) == set(reach.KEPT)


def test_a_function_only_tests_call_is_marked(tmp_path):
    # run on a copy with one more function, in a new process: this one has
    # already imported quag from this checkout
    shutil.copytree(ROOT / "src" / "quag", tmp_path / "src" / "quag",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "quag" / "tensor.py", "a", encoding="utf-8") as f:
        f.write("\n\ndef only_tests_call_this():\n    return None\n")
    run = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stderr
    head, *names = run.stdout.splitlines()
    reached, total = map(int, head.removeprefix("reached ").split(" of "))
    assert total - reached == len(names) == len(load_script().KEPT) + 1
    assert "tensor.py:only_tests_call_this  (not in KEPT)" in names


def test_usage_without_one_checkout_exits_2(capsys):
    reach = load_script()
    assert reach.main([]) == 2
    assert reach.main([str(ROOT), str(ROOT)]) == 2
    assert "reach.py CHECKOUT" in capsys.readouterr().err
