"""Tagged JSON codec for store keys, values and labeler snapshots.

Everything the durable store persists — WAL frames, snapshot manifests,
per-shard labeler states — is JSON on disk, but the in-memory objects are
richer than JSON: keys are often :class:`fractions.Fraction` (the exact
rationals the test drivers synthesize), labeler snapshots contain tuples
(RNG states, task queues) and integer-keyed dicts.  The codec walks a value
recursively and wraps every non-JSON leaf in a single-key tag object:

==========================  ==========================================
in-memory value             encoded form
==========================  ==========================================
``str/int/bool/None``       itself
``float``                   itself (``repr`` round-trips exactly)
``Fraction(n, d)``          ``{"$frac": [str(n), str(d)]}``
``tuple(...)``              ``{"$tuple": [...]}``
``bytes``                   ``{"$bytes": "<hex>"}``
``dict`` (str keys)         ``{...}`` (keys starting with ``$`` escaped
                            as ``$$``)
``dict`` (other keys)       ``{"$dict": [[k, v], ...]}``
``list``                    ``[...]``
==========================  ==========================================

The encoding is self-describing, so :func:`decode` needs no schema, and it
is canonical (``sort_keys`` + fixed separators in :func:`dumps`), so the
CRC the WAL stamps over a frame is stable across processes.

**Fast path.**  Most of what the store persists is already plain JSON:
WAL payloads of ``int``/``str`` keys and values, snapshot layouts and
entries that are lists of ``[slot, key]`` / ``[key, value]`` pairs.
:func:`encode` therefore checks the *exact* type first: a ``str``,
``int``, ``float``, ``bool`` or ``None`` leaf is returned as is, and a
``list`` (or a ``dict`` whose keys are all exact ``str`` not starting
with ``$``) whose items encode to themselves is returned as the same
object, without building a copy and without a call per leaf.  Only a
container holding something that needs a tag is rebuilt, and only along
the path to that tag.  The output is byte-identical to the full walk
(:func:`_encode_walk`, which every other type still takes): the walk
maps exactly these values to equal copies of themselves, and JSON
writes a value and its equal copy alike.  Subclasses (``IntEnum``,
``OrderedDict``, a ``str`` subclass) are not exact types, so they keep
going through the walk.  :func:`decode` takes the same path: plain JSON
holds no tag and no ``$`` key, so it decodes to itself.
"""

from __future__ import annotations

import json
import zlib
from fractions import Fraction
from itertools import chain


#: Exact leaf types JSON writes natively (subclasses take the full walk).
_PLAIN = frozenset((str, int, float, bool, type(None)))
_LISTS = frozenset((list,))


def encode(value):
    """Encode ``value`` into a JSON-representable structure.

    Plain-JSON values come back as the very same objects (see the module
    docstring); anything else takes :func:`_encode_walk`.
    """
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is list:
        return _map_list(value, encode)
    if kind is dict:
        return _map_dict(value, encode, _encode_walk)
    return _encode_walk(value)


def decode(value):
    """Invert :func:`encode` (plain JSON comes back as the same objects)."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is list:
        return _map_list(value, decode)
    if kind is dict:
        return _map_dict(value, decode, _decode_walk)
    return _decode_walk(value)


def _map_list(items: list, convert) -> list:
    """``[convert(item) for item in items]``, or ``items`` itself when every
    item converts to itself.  A list of leaves, or of lists of leaves (the
    layout and entry pairs of a snapshot), is recognised from the set of
    its types, without a Python-level step per item."""
    kinds = set(map(type, items))
    if kinds <= _PLAIN or (kinds == _LISTS and set(map(type, chain.from_iterable(items))) <= _PLAIN):
        return items
    for index, item in enumerate(items):
        if type(item) in _PLAIN:
            continue
        converted = convert(item)
        if converted is not item:
            return items[:index] + [converted] + [convert(rest) for rest in items[index + 1 :]]
    return items


def _map_dict(mapping: dict, convert, walk) -> dict:
    """``mapping`` with every value converted, copied only if a value
    changed; a key that is not an exact ``str`` or starts with ``$``
    needs escaping or a tag, so that dict takes the full ``walk``."""
    converted = None
    for key, item in mapping.items():
        if type(key) is not str or key[:1] == "$":
            return walk(mapping)
        if type(item) in _PLAIN:
            continue
        new = convert(item)
        if new is not item:
            if converted is None:
                converted = dict(mapping)
            converted[key] = new
    return mapping if converted is None else converted


def _encode_walk(value):
    """The full tagging walk: every type, every tag."""
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    if isinstance(value, Fraction):
        return {"$frac": [str(value.numerator), str(value.denominator)]}
    if isinstance(value, tuple):
        return {"$tuple": [encode(item) for item in value]}
    if isinstance(value, bytes):
        return {"$bytes": value.hex()}
    if isinstance(value, list):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            return {
                ("$$" + key[1:] if key.startswith("$") else key): encode(item)
                for key, item in value.items()
            }
        return {"$dict": [[encode(key), encode(item)] for key, item in value.items()]}
    raise TypeError(f"cannot encode {type(value).__name__} value {value!r}")


def _decode_walk(value):
    """The full untagging walk."""
    if isinstance(value, list):
        return [decode(item) for item in value]
    if isinstance(value, dict):
        if len(value) == 1:
            tag, payload = next(iter(value.items()))
            if tag == "$frac":
                return Fraction(int(payload[0]), int(payload[1]))
            if tag == "$tuple":
                return tuple(decode(item) for item in payload)
            if tag == "$bytes":
                return bytes.fromhex(payload)
            if tag == "$dict":
                return {decode(key): decode(item) for key, item in payload}
        return {
            (key[1:] if key.startswith("$$") else key): decode(item)
            for key, item in value.items()
        }
    return value


#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` builds this
#: encoder anew on every call; one shared instance writes the same bytes.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical(document) -> str:
    """Canonical one-line JSON of an already-encoded document."""
    return _CANONICAL.encode(document)


def dumps(value) -> str:
    """Canonical one-line JSON of an encoded value (stable across runs)."""
    return _CANONICAL.encode(encode(value))


def loads(text: str):
    return decode(json.loads(text))


def checksum(text: str) -> int:
    """CRC32 stamped over WAL frames and snapshot files."""
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
