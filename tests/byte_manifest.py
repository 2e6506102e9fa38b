"""Byte manifest of the README's ten commands on four scenarios.

The commands are the README's "Command-line usage" block as written, so
a README command that fails or whose output changes fails the tests.

For every (scenario, command) pair the manifest holds the sha256 of the
command's output file, its stderr text and its exit code. It also holds
the sha256 of the density image that ``fit density-image`` reads, which
is rendered here, and the environment the bytes depend on: numpy's
version (its Generator streams are not promised to stay fixed across
versions) and the CPU features numpy's kernels dispatch to.

Rewrite the manifest from the repository root with

    PYTHONPATH=src python tests/byte_manifest.py

A change that alters output bytes rewrites it. Before writing, the script
prints each entry that differs from the committed manifest, one per line,
and the manifest's diff names the same outputs, one line per output.
``tests/test_byte_manifest.py`` compares the program against it.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from mtload.cli import main
from mtload.estimation import (DensityImage, image_to_table,
                               render_density_image)
from mtload.mc import seed_stream

MANIFEST = Path(__file__).with_name("byte_manifest.json")

SCENARIOS = {
    "default": "",
    "noise-1pct-mc-20k": "noise.sigma_rel = 0.01\nmc.particles = 20000\n",
    "noise-10pct-point-reservoir": (
        "noise.sigma_rel = 0.1\nmt.temperature_uK = 120\n"
        "light.beam_count = 3\nmot.sigma_um = 0\n"),
    "no-two-body-noise-1pct": (
        "rates.two_body_m3_per_s = 0\nnoise.sigma_rel = 0.01\n"),
}

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, language: str) -> str:
    """The text of the first ``language`` code block under the README's
    ``## heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_commands() -> tuple:
    """The README's command block as (label, args) pairs, in its order.
    The label is the subcommand, or ``fit-<name>`` for a fit; a command
    that prints to stdout gets ``--out <label>.csv``. Each also gets
    ``--scenario run.cfg`` when it runs."""
    commands = []
    for line in readme_block("Command-line usage", "sh").splitlines():
        args = line.split()[1:]  # without the leading "mtload"
        label = f"fit-{args[1]}" if args[0] == "fit" else args[0]
        if "--out" not in args:
            args += ["--out", f"{label}.csv"]
        commands.append((label, args))
    return tuple(commands)


COMMANDS = readme_commands()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> dict:
    """numpy's version and the dispatch targets its kernels use here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    enabled = umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "cpu_dispatch": [name for name in umath.__cpu_dispatch__
                         if enabled.get(name)],
    }


def image_csv() -> str:
    """A 32 x 32 projection image with 1% additive noise of its peak."""
    image = render_density_image(1e16, 3000.0, 700.0, 4e-5, (32, 32))
    noise = 0.01 * image.values.max() * seed_stream(
        0, "manifest/image").standard_normal(image.values.shape)
    return image_to_table(
        DensityImage(image.values + noise, image.pitch, image.axes),
        "projection").to_csv()


def scenario_outputs(scenario: str, workdir: Path) -> dict:
    """Run the ten commands in ``workdir`` on ``scenario``'s text: one
    entry per command, keyed ``"<scenario> <command>"``."""
    (workdir / "run.cfg").write_text(SCENARIOS[scenario], encoding="utf-8")
    (workdir / "image.csv").write_text(image_csv(), encoding="utf-8")
    entries = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for label, args in COMMANDS:
            out = Path(args[args.index("--out") + 1])
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(args + ["--scenario", "run.cfg"])
            entries[f"{scenario} {label}"] = {
                "exit": code,
                "sha256": sha256(out.read_bytes()) if out.exists() else None,
                "stderr": stderr.getvalue(),
            }
    finally:
        os.chdir(previous)
    return entries


def build(workdir: Path) -> dict:
    outputs = {}
    for scenario in SCENARIOS:
        path = workdir / scenario
        path.mkdir()
        outputs.update(scenario_outputs(scenario, path))
    return {**environment(),
            "image_sha256": sha256(image_csv().encode("utf-8")),
            "outputs": outputs}


def dumps(manifest: dict) -> str:
    """JSON with one line per output, so a diff names each one."""
    head = [f' {json.dumps(key)}: {json.dumps(value)}'
            for key, value in manifest.items() if key != "outputs"]
    body = [f'  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}'
            for key, value in manifest["outputs"].items()]
    return ("{\n" + ",\n".join(head) + ',\n "outputs": {\n'
            + ",\n".join(body) + "\n }\n}\n")


def changed_entries(old: dict, new: dict) -> list[str]:
    """The keys whose values differ between two manifests, outputs by
    their ``"<scenario> <command>"`` key, in sorted order; a key that one
    side lacks differs."""
    def flat(manifest):
        entries = {key: value for key, value in manifest.items()
                   if key != "outputs"}
        entries.update(manifest.get("outputs", {}))
        return entries

    old, new = flat(old), flat(new)
    return sorted(key for key in old.keys() | new.keys()
                  if old.get(key) != new.get(key))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = build(Path(tmp))
    committed = (json.loads(MANIFEST.read_text(encoding="utf-8"))
                 if MANIFEST.exists() else {})
    for key in changed_entries(committed, manifest):
        print(f"changed: {key}")
    MANIFEST.write_text(dumps(manifest), encoding="utf-8")
    print(f"wrote {MANIFEST}")
