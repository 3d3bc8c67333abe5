import hashlib
import importlib.util
import struct
from pathlib import Path

from conftest import tiny_config
from quag.model import QuagParams
from quag.trainer import AdamW, TaskLoaders, TrainSchedule, round_robin_epoch, save_checkpoint

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py"


def load_script():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_restored_state_hashes_the_state_the_run_held(tiny_corpus, tmp_path):
    config = tiny_config(tiny_corpus, epochs=1)
    episodes = tiny_corpus.load_episodes()
    model = QuagParams(config)
    optimizer = AdamW.for_model(model)
    round_robin_epoch(model, TaskLoaders(episodes, config.batch_size, config.seed),
                      TrainSchedule.for_dataset(config, len(episodes)), optimizer, 0)
    save_checkpoint(tmp_path / "ckpt.qgck", config, model, optimizer, epoch=1)
    held = (optimizer.flat_data.tobytes() + optimizer.flat_m.tobytes()
            + optimizer.flat_v.tobytes() + struct.pack("<qq", optimizer.t, 1))
    assert optimizer.t > 0 and optimizer.flat_v.any()
    assert load_script().restored_state(tmp_path / "ckpt.qgck", config) == \
        hashlib.sha256(held).hexdigest()
