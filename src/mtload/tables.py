"""Result tables and their CSV form.

Every emitted file starts with '#'-prefixed provenance (tool version,
scenario hash, seed, the full canonical scenario) followed by a header row
``name(unit),...`` and comma-separated data rows, '.' decimal. Values are
SI regardless of the units used in the scenario file. Output depends only
on (scenario, seed): no clocks, no locale, so reruns are byte-identical.
"""

import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

TOOL_VERSION = "0.1.0"


def format_number(value) -> str:
    """Deterministic shortest round-trip decimal form."""
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@dataclass
class ResultTable:
    """Rectangular table with units on every column and provenance lines."""

    columns: list[tuple[str, str]]          # (name, unit)
    rows: list[tuple]
    provenance: list[tuple[str, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        width = len(self.columns)
        for row in self.rows:
            if len(row) != width:
                raise ValueError("rows must match the column count")

    def header(self) -> str:
        return ",".join(f"{name}({unit})" for name, unit in self.columns)

    def to_csv(self) -> str:
        out = io.StringIO()
        for key, value in self.provenance:
            out.write(f"# {key} = {value}\n")
        for note in self.notes:
            out.write(f"# note {note}\n")
        out.write(self.header() + "\n")
        for row in self.rows:
            out.write(",".join(map(format_number, row)) + "\n")
        return out.getvalue()


def text_sha256(text: str) -> str:
    """Hex sha256 of ``text`` encoded as UTF-8."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def provenance_header(scenario) -> list[tuple[str, str]]:
    """Standard provenance block: version, scenario hash, the scenario's
    seed, and the full canonical scenario (so any output can be re-run)."""
    text = scenario.canonical_text()
    lines = [
        ("mtload-version", TOOL_VERSION),
        ("scenario-sha256", text_sha256(text)),
        ("seed", str(scenario.seed)),
    ]
    for line in text.splitlines():
        lines.append(("scenario", line))
    return lines


@dataclass
class ParsedTable:
    """CSV file read back: provenance, notes, and named columns."""

    provenance: list[tuple[str, str]]
    notes: list[str]
    columns: list[tuple[str, str]]
    data: np.ndarray  # (n_rows, n_cols)

    def column(self, name: str) -> np.ndarray:
        """Column by bare name (units in the header are ignored)."""
        for idx, (col_name, _) in enumerate(self.columns):
            if col_name == name:
                return self.data[:, idx]
        available = ", ".join(n for n, _ in self.columns)
        raise ConfigError(f"missing column {name!r} (file has: {available})")


def _split_header_field(text: str) -> tuple[str, str]:
    text = text.strip()
    if text.endswith(")") and "(" in text:
        name, _, unit = text[:-1].partition("(")
        return name, unit
    return text, ""


def parse_csv(text: str) -> ParsedTable:
    provenance: list[tuple[str, str]] = []
    notes: list[str] = []
    header: list[tuple[str, str]] | None = None
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("note "):
                notes.append(body[len("note "):])
            elif " = " in body:
                key, _, value = body.partition(" = ")
                provenance.append((key.strip(), value.strip()))
            else:
                notes.append(body)
            continue
        if header is None:
            header = [_split_header_field(f) for f in line.split(",")]
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError(
                f"line {lineno}: expected {len(header)} fields, "
                f"got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: non-numeric field: {exc}") \
                from exc
    if header is None:
        raise ConfigError("no header row found")
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
    return ParsedTable(provenance=provenance, notes=notes, columns=header,
                       data=data)


def read_text(path: str) -> str:
    """The file's text; a file that is not UTF-8 is a ConfigError naming
    it, while an unreadable one propagates as OSError (an I/O failure)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None


def read_csv(path: str) -> ParsedTable:
    return parse_csv(read_text(path))
