"""The JSON examples in README.md are read or printed by the code they document."""

import json
import re
from pathlib import Path

from nnentropy import IsaExperimentConfig, RateExperimentConfig
from nnentropy.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _json_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```json\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_json_examples_parse(capsys):
    record, rate, isa = _json_blocks()

    assert main(["calibrate", "--d", "3", "--alpha", "0.7", "--S", "1,2,3"]) == 0
    assert json.loads(record) == json.loads(capsys.readouterr().out)

    # The README calls every value but the distribution a default.
    rate = json.loads(rate)
    defaults = RateExperimentConfig.from_dict({"distribution": rate["distribution"]})
    assert RateExperimentConfig.from_dict(rate).to_dict() == defaults.to_dict()

    isa_config = IsaExperimentConfig.from_dict(json.loads(isa))
    assert isa_config.to_dict() == json.loads(isa)
