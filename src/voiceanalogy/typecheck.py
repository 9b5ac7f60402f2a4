"""Field-type check shared by the frozen config dataclasses (CqtConfig,
ModelConfig, TrainConfig), whose values may come from file headers, and
the one way to build a dataclass from such a header's metadata."""

import numbers
from dataclasses import fields


def check_field_types(config, error=ValueError):
    """Raise `error` naming the first field of the dataclass `config` whose
    value has the wrong type. An int field, and each item of a tuple field,
    takes an integer, not a bool and not a float such as 4.0; a float field
    takes a real number, not a bool."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind = int if f.type is tuple else f.type
        items = enumerate(value) if f.type is tuple else [(None, value)]
        for i, v in items:
            if kind is int:
                ok, wanted = isinstance(v, numbers.Integral), "an integer"
            elif kind is float:
                ok, wanted = isinstance(v, numbers.Real), "a real number"
            else:
                continue
            if isinstance(v, bool) or not ok:
                name = f.name if i is None else f"{f.name}[{i}]"
                raise error(f"{name} must be {wanted}, got {v!r}")


def from_metadata(cls, meta, section):
    """The dataclass `cls` built from the metadata mapping `meta`, which must
    hold exactly its fields; a tuple field's list, and each list in it,
    becomes a tuple. Raises ValueError naming `section.key` for a key that
    is not a field or a field that has no key."""
    if not isinstance(meta, dict):
        raise ValueError(f"{section} must be a mapping, got {meta!r}")
    names = {f.name for f in fields(cls)}
    if meta.keys() != names:
        key = min(meta.keys() ^ names)
        raise ValueError(f"{section}.{key}: {'unknown' if key in meta else 'missing'} key")
    return cls(**{f.name: tuple(tuple(v) if isinstance(v, list) else v for v in meta[f.name])
                  if f.type is tuple else meta[f.name] for f in fields(cls)})
