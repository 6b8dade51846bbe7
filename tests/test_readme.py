"""The JSON examples in README.md are read by the code they document."""

import json
import re
from pathlib import Path

from nnentropy import GammaCache, GammaKey, IsaExperimentConfig, RateExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _json_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```json\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_json_examples_parse(tmp_path):
    record, rate, isa = _json_blocks()

    cache = GammaCache(tmp_path / "gamma.jsonl")
    cache.path.write_text(record, encoding="utf-8")
    # The key `calibrate --d 3 --alpha 0.7 --S 1,2,3` looks up.
    key = GammaKey(d=3, p=3 * (1.0 - 0.7), spec=(1, 2, 3))
    assert cache.lookup(key).key == key

    # The README calls every value but the distribution a default.
    rate = json.loads(rate)
    defaults = RateExperimentConfig.from_dict({"distribution": rate["distribution"]})
    assert RateExperimentConfig.from_dict(rate).to_dict() == defaults.to_dict()

    isa_config = IsaExperimentConfig.from_dict(json.loads(isa))
    assert isa_config.to_dict() == json.loads(isa)
