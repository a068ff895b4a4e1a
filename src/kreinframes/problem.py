"""Problem documents: the JSON input format of the CLI.

A problem document declares one Krein space plus named weighted families,
vector frames and operators, with optional tolerance overrides and a seed.
Complex numbers are two-element [re, im] arrays; bare reals are accepted
and normalized.  Matrices are row-major arrays of rows; subspace bases are
given as lists of basis columns.
"""

from __future__ import annotations

import functools
import gc
import json
import reprlib
from itertools import chain
from pathlib import Path

import numpy as np

from .core import KreinSpace, Operator, Record, Subspace, Tolerances
from .duality import VectorFrame
from .errors import (
    MemberClassificationError,
    RankError,
    SchemaError,
    ValidationError,
    WeightError,
)
from .fusion import WeightedFamily

__all__ = ["ProblemSpec", "decode_document", "parse_spec"]


class ProblemSpec(Record):
    space: KreinSpace
    families: dict[str, WeightedFamily] = {}
    vector_frames: dict[str, VectorFrame] = {}
    operators: dict[str, Operator] = {}
    tolerances: Tolerances = Tolerances()
    seed: int | None = None


_TOP_KEYS = set(ProblemSpec._fields)
_TOL_KEYS = set(Tolerances._fields)
# a mistyped --spec value is echoed whole up to a few hundred characters
_PATH_ECHO = reprlib.Repr()
_PATH_ECHO.maxstring = 300
# no path of PATH_MAX (4096 on Linux) characters or more can exist: such a
# string is document text, and probing it would encode and stat all of it
_PATH_MAX = 4096


def _scalar(value, where: str) -> complex:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: booleans are not numbers")
    if isinstance(value, (int, float)):
        parts = (value, 0.0)
    elif (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in value)
    ):
        parts = value
    else:
        raise SchemaError(
            f"{where}: expected a number or a [re, im] pair, got {reprlib.repr(value)}"
        )
    try:
        z = complex(*parts)
    except OverflowError:  # an integer beyond float64
        raise ValidationError(f"{where}: number is not finite") from None
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValidationError(f"{where}: number is not finite")
    return z


def _bulk(value, shape: tuple) -> np.ndarray | None:
    """value as a complex array of the given shape, converted in one pass, or None.

    Succeeds only where the entry walk would accept value and build the same
    array bit for bit: every container a list, every entry a JSON number (an
    int or a float, never a bool) or an [re, im] pair of them, all rows of one
    form and length, and every number finite in float64.  On None the caller
    walks the entries, which locates the first fault.  Each level of lists is
    checked and flattened by C-level passes over the whole level.
    """
    items, kinds = [value], {type(value)}
    for n in shape:  # a tuple is no row the walk accepts
        if kinds != {list} or set(map(len, items)) != {n}:
            return None
        items = list(chain.from_iterable(items))
        kinds = set(map(type, items))
    pairs = kinds == {list}
    if pairs:
        if set(map(len, items)) != {2}:
            return None
        items = list(chain.from_iterable(items))
        kinds = set(map(type, items))
    if not kinds <= {int, float}:
        return None
    try:
        f = np.fromiter(items, float, len(items))
    except OverflowError:  # an integer beyond float64
        return None
    if not np.isfinite(f).all():
        return None
    # a view keeps the sign of a zero real part, which re + 1j * im would not
    return (f.view(complex) if pairs else f.astype(complex)).reshape(shape)


def _vector(entries, where: str, n: int) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise SchemaError(f"{where}: expected a non-empty array")
    v = _bulk(entries, (n,))
    if v is not None:
        return v
    v = np.asarray([_scalar(x, f"{where}[{i}]") for i, x in enumerate(entries)])
    if v.shape != (n,):
        raise SchemaError(f"{where}: expected a vector of length {n}")
    return v


def _rows(value, where: str, n: int, noun: str) -> np.ndarray:
    """value, a non-empty list of length-n rows, as a complex array; a row
    the bulk pass refuses is walked by ``_vector``, which locates its fault."""
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where}: expected a non-empty {noun}")
    m = _bulk(value, (len(value), n))
    if m is None:
        m = np.array([_vector(row, f"{where}[{i}]", n) for i, row in enumerate(value)])
    return m


def _finite_energy(m: np.ndarray, where: str, normal: bool = False) -> np.ndarray:
    """m, unless its squared norm overflows float64 (every product with it would)
    or, with ``normal``, m is nonzero and its squared norm is below 2^-1022."""
    energy = np.vdot(m, m).real
    if not np.isfinite(energy):
        raise ValidationError(f"{where}: squared norm is not finite in float64")
    if normal and energy < 2.0**-1022 and m.any():  # 1e-170 I squares to 0.0
        raise ValidationError(f"{where}: squared norm underflows to subnormal")
    return m


def _collector_paused(f):
    """f with the cyclic collector paused and the caller's state restored on
    every exit: a decoded document's tens of thousands of lists hold no
    reference cycles, and a collection while they live walks them all."""

    @functools.wraps(f)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return f(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()

    return paused


@_collector_paused
def decode_document(source) -> dict:
    """The decoded JSON object of a problem document given as a path, JSON text
    or dict, with the collector paused; any other top level is a
    SchemaError, JSON strings included."""
    if isinstance(source, dict):
        return source
    if not isinstance(source, (str, Path)):
        raise SchemaError(f"unsupported problem source of type {type(source)!r}")
    text, is_file = str(source), False
    if 0 < len(text) < _PATH_MAX:  # Path("") is "."
        try:
            is_file = Path(text).exists()
        except OSError:
            pass
    try:  # JSON text is UTF-8, whatever the locale's encoding
        text = Path(source).read_text(encoding="utf-8") if is_file else text
    except UnicodeDecodeError as exc:
        raise SchemaError(f"invalid UTF-8 at byte {exc.start}: {exc.reason}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        if not is_file and exc.pos == len(text) - len(text.lstrip(" \t\n\r")):
            # not even the start of a JSON value: most likely a mistyped path
            raise SchemaError(f"no such file: {_PATH_ECHO.repr(str(source))}") from exc
        raise SchemaError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise SchemaError("invalid JSON: arrays or objects nested too deeply") from None
    except ValueError:  # the interpreter's limit on integer-string conversion
        raise SchemaError("number is not finite: an integer of too many digits") from None
    if not isinstance(doc, dict):
        raise SchemaError("the top level of a problem document must be an object")
    return doc


@_collector_paused
def parse_spec(source) -> ProblemSpec:
    """Parse and validate a problem document (path, JSON text, or dict), with
    the collector paused from decoding on; a document decoded here is freed
    before the caller's collector state comes back (``_collector_paused``)."""
    doc = decode_document(source)
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")
    if "space" not in doc:
        raise SchemaError("missing required key 'space'")

    tolerances = Tolerances()
    if "tolerances" in doc:
        tdoc = doc["tolerances"]
        if not isinstance(tdoc, dict):
            raise SchemaError("'tolerances' must be an object")
        unknown = set(tdoc) - _TOL_KEYS
        if unknown:
            raise SchemaError(f"unknown tolerance keys: {sorted(unknown)}")
        try:
            tolerances = Tolerances(**tdoc)
        except ValidationError as exc:
            raise SchemaError(f"tolerances.{exc}") from exc

    sdoc = doc["space"]
    if not isinstance(sdoc, dict) or "dim" not in sdoc or "J" not in sdoc:
        raise SchemaError("'space' must be an object with 'dim' and 'J'")
    dim = sdoc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError("space.dim must be a positive integer")
    j = _finite_energy(_rows(sdoc["J"], "space.J", dim, "array of rows"), "space.J")
    if j.shape != (dim, dim):
        raise SchemaError(f"space.J must be {dim}x{dim}")
    space = KreinSpace(j, tol=tolerances)  # ValidationError on a bad symmetry

    families: dict[str, WeightedFamily] = {}
    for name, fdoc in _named_section(doc, "families").items():
        if not isinstance(fdoc, dict) or "subspaces" not in fdoc or "weights" not in fdoc:
            raise SchemaError(
                f"families.{name}: expected an object with 'subspaces' and 'weights'"
            )
        if not isinstance(fdoc["subspaces"], list) or not fdoc["subspaces"]:
            raise SchemaError(f"families.{name}.subspaces: expected a non-empty array")
        subspaces = []
        for i, cols in enumerate(fdoc["subspaces"]):
            where = f"families.{name}.subspaces[{i}]"
            columns = _rows(cols, where, dim, "list of columns")
            columns = _finite_energy(columns, where, normal=True)
            try:
                subspaces.append(Subspace(space, columns.T))
            except RankError as exc:
                raise ValidationError(f"{where}: {exc}") from exc
        weights = fdoc["weights"]
        if not isinstance(weights, list) or len(weights) != len(subspaces):
            raise SchemaError(
                f"families.{name}.weights: expected {len(subspaces)} numbers"
            )
        weights = _vector(weights, f"families.{name}.weights", len(subspaces))
        if np.any(weights.imag != 0):
            raise SchemaError(f"families.{name}.weights: weights must be real")
        _finite_energy(weights, f"families.{name}.weights")
        try:
            families[name] = WeightedFamily(space, subspaces, weights.real)
        except MemberClassificationError as exc:
            raise MemberClassificationError(
                exc.index, f"family '{name}': {exc.detail}"
            ) from exc
        except WeightError as exc:
            raise ValidationError(f"families.{name}.weights: {exc}") from exc

    vector_frames: dict[str, VectorFrame] = {}
    for name, vdoc in _named_section(doc, "vector_frames").items():
        where = f"vector_frames.{name}"
        vectors = _rows(vdoc, where, dim, "array")
        for i, v in enumerate(vectors):
            _finite_energy(v, f"{where}[{i}]")
        _finite_energy(vectors, where)  # the frame operator sums every vector's energy
        try:
            vector_frames[name] = VectorFrame(space, vectors)
        except MemberClassificationError as exc:
            raise MemberClassificationError(
                exc.index, f"vector frame '{name}': {exc.detail}"
            ) from exc

    operators: dict[str, Operator] = {}
    for name, mdoc in _named_section(doc, "operators").items():
        m = _rows(mdoc, f"operators.{name}", dim, "array of rows")
        if m.shape != (dim, dim):
            raise SchemaError(f"operators.{name}: expected a {dim}x{dim} matrix")
        _finite_energy(m, f"operators.{name}", normal=True)
        operators[name] = Operator(space, m)

    seed = doc.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise SchemaError("'seed' must be an integer")

    return ProblemSpec(space, families, vector_frames, operators, tolerances, seed)


def _named_section(doc, key) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise SchemaError(f"'{key}' must be an object of named entries")
    for name in section:
        if not isinstance(name, str) or not name:
            raise SchemaError(f"'{key}' entries must have non-empty string names")
        try:  # a lone surrogate from a \ud800 escape has no UTF-8 form
            name.encode()
        except UnicodeEncodeError:
            raise SchemaError(
                f"'{key}' entry name {reprlib.repr(name)} is not valid Unicode"
            ) from None
    return section
