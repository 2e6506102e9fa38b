import json

import pytest

from byte_manifest import (COMMANDS, MANIFEST, SCENARIOS, changed_entries,
                           dumps, environment, image_csv, scenario_outputs,
                           sha256)

COMMITTED = json.loads(MANIFEST.read_text(encoding="utf-8"))


def require_manifest_environment():
    # the bytes are numpy's streams and kernels: under another numpy or
    # other CPU dispatch targets a difference says nothing of the program
    here = environment()
    for key, value in here.items():
        if COMMITTED[key] != value:
            pytest.skip(f"manifest made with {key} = {COMMITTED[key]!r}, "
                        f"this run has {value!r}")


def test_manifest_covers_ten_commands_on_each_scenario():
    # the README promises ten commands
    assert len(COMMANDS) == 10
    assert len(COMMITTED["outputs"]) == len(COMMANDS) * len(SCENARIOS)
    assert dumps(COMMITTED) == MANIFEST.read_text(encoding="utf-8")


def test_changed_entries_names_each_difference():
    old = {"numpy": "2.4.6", "image_sha256": "a",
           "outputs": {"default figure4": {"exit": 0, "sha256": "b"},
                       "default figure2": {"exit": 0, "sha256": "c"},
                       "default mc-transfer": {"exit": 0, "sha256": "d"}}}
    new = {"numpy": "2.4.6", "image_sha256": "a",
           "outputs": {"default figure4": {"exit": 0, "sha256": "e"},
                       "default figure2": {"exit": 0, "sha256": "c"},
                       "default fit-linear": {"exit": 2, "sha256": None}}}
    assert changed_entries(old, new) == [
        "default figure4", "default fit-linear", "default mc-transfer"]
    assert changed_entries(old, old) == []
    assert changed_entries({}, {"numpy": "2.4.6"}) == ["numpy"]


def test_image_input_matches_manifest():
    require_manifest_environment()
    assert sha256(image_csv().encode("utf-8")) == COMMITTED["image_sha256"]


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_outputs_match_manifest(tmp_path, scenario):
    require_manifest_environment()
    got = scenario_outputs(scenario, tmp_path)
    want = {key: value for key, value in COMMITTED["outputs"].items()
            if key.startswith(f"{scenario} ")}
    changed = changed_entries({"outputs": want}, {"outputs": got})
    assert not changed, (
        f"outputs differ from {MANIFEST.name}: {changed}; if the change is "
        f"intended, rewrite it with tests/byte_manifest.py")
