"""Problem file parsing and serialization.

The format is deliberately diff-friendly: UTF-8, bracketed section
headers, one datum per line, ``#`` comments, and every number an exact
rational in ``p/q`` form.  ``parse(serialize(p)) == p`` holds for every
problem this package produces.

Sections:

    [root_system]   one label line ("toric:2", "A1", "A2", "A3")
    [polytope]      one vertex per line, coordinates separated by spaces
    [pl_function]   optional; one piece per line: constant gradient...
    [crease]        optional sugar: corner/epsilon/slope/symmetrize keys
    [options]       free-form key = value pairs (selector, progression, ...)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .exact import Vec, as_vec, rat_str

_SECTIONS = ("root_system", "polytope", "pl_function", "crease", "options")


@dataclass(frozen=True)
class CreaseSpec:
    corner: Vec
    epsilon: Fraction
    slope: Fraction
    symmetrize: bool


@dataclass(frozen=True)
class Problem:
    root_system: str
    vertices: tuple[Vec, ...]
    pl_pieces: tuple[tuple[Fraction, Vec], ...] | None = None
    crease: CreaseSpec | None = None
    options: tuple[tuple[str, str], ...] = ()

    def option(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.options:
            if k == key:
                return v
        return default


def parse_rat(tok: str, line: int | None = None) -> Fraction:
    """An exact rational from text; ParseError (exit 4) when malformed."""
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {tok!r}", line) from None


def parse_problem(text: str) -> Problem:
    section = None
    root = None
    vertices: list[Vec] = []
    pieces: list[tuple[Fraction, Vec]] = []
    piece_lines: list[int] = []
    crease_kv: dict[str, str] = {}
    options: list[tuple[str, str]] = []
    saw_pl = False
    saw_crease = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ParseError(f"unknown section [{section}]", lineno)
            if section == "pl_function":
                saw_pl = True
            if section == "crease":
                saw_crease = True
            continue
        if section is None:
            raise ParseError("data before any section header", lineno)
        if section == "root_system":
            if root is not None:
                raise ParseError("duplicate root system line", lineno)
            root = line
        elif section == "polytope":
            vertices.append(tuple(parse_rat(t, lineno) for t in line.split()))
        elif section == "pl_function":
            toks = line.split()
            if len(toks) < 2:
                raise ParseError("piece needs a constant and a gradient", lineno)
            vals = [parse_rat(t, lineno) for t in toks]
            pieces.append((vals[0], tuple(vals[1:])))
            piece_lines.append(lineno)
        elif section in ("crease", "options"):
            if "=" not in line:
                raise ParseError("expected key = value", lineno)
            key, val = (s.strip() for s in line.split("=", 1))
            if section == "crease":
                crease_kv[key] = val
            else:
                options.append((key, val))
    if root is None:
        raise ParseError("missing [root_system] section")
    if not vertices:
        raise ParseError("missing [polytope] section")
    if len({len(v) for v in vertices}) != 1:
        raise ParseError("polytope vertices have mixed dimensions")
    dim = len(vertices[0])
    for (_, grad), lineno in zip(pieces, piece_lines):
        if len(grad) != dim:
            raise ParseError(f"piece gradient has {len(grad)} entries, "
                             f"the polytope dimension is {dim}", lineno)
    crease = None
    if saw_crease:
        try:
            crease = CreaseSpec(
                corner=as_vec(crease_kv["corner"].split()),
                epsilon=Fraction(crease_kv["epsilon"]),
                slope=Fraction(crease_kv.get("slope", "1")),
                symmetrize=crease_kv.get("symmetrize", "true").lower() == "true")
        except KeyError as exc:
            raise ParseError(f"crease section is missing {exc}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad crease value: {exc}")
    return Problem(
        root_system=root, vertices=tuple(vertices),
        pl_pieces=tuple(pieces) if saw_pl else None,
        crease=crease, options=tuple(options))


def serialize_problem(p: Problem) -> str:
    out = ["[root_system]", p.root_system, "", "[polytope]"]
    for v in p.vertices:
        out.append(" ".join(rat_str(x) for x in v))
    if p.pl_pieces is not None:
        out += ["", "[pl_function]"]
        for c, g in p.pl_pieces:
            out.append(" ".join([rat_str(c)] + [rat_str(x) for x in g]))
    if p.crease is not None:
        out += ["", "[crease]",
                "corner = " + " ".join(rat_str(x) for x in p.crease.corner),
                f"epsilon = {rat_str(p.crease.epsilon)}",
                f"slope = {rat_str(p.crease.slope)}",
                f"symmetrize = {'true' if p.crease.symmetrize else 'false'}"]
    if p.options:
        out += ["", "[options]"]
        for k, v in p.options:
            out.append(f"{k} = {v}")
    return "\n".join(out) + "\n"


def load_problem(path) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def save_problem(p: Problem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_problem(p))
