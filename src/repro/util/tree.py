"""The one recursive walker over nested containers of arrays.

A *tree* nests dict / list / tuple / dataclass instances.  Its *leaves* are
what ``is_leaf`` accepts (ndarrays by default) plus every non-container
(``None``, scalars), which :func:`tree_map` passes through untouched; a
leaf's *path* is the tuple of keys, indices and field names leading to it.
State, physics inputs/outputs and message payloads are all trees.
"""

import copy
import dataclasses
import typing

import numpy as np


def _is_array(x) -> bool:
    return isinstance(x, np.ndarray)


def _keys(tree):
    if isinstance(tree, dict):
        return list(tree)
    if isinstance(tree, (list, tuple)):
        return range(len(tree))
    if dataclasses.is_dataclass(tree) and not isinstance(tree, type):
        return [f.name for f in dataclasses.fields(tree)]
    return None                 # not a container


def _get(tree, key):
    return tree[key] if isinstance(tree, (dict, list, tuple)) else getattr(tree, key)


def _walk(fn, is_leaf, path, tree, *rest):
    if is_leaf(tree):
        return fn(path, tree, *rest)
    keys = _keys(tree)
    if keys is None:
        return tree
    values = [_walk(fn, is_leaf, path + (k,), _get(tree, k),
                    *(_get(r, k) for r in rest)) for k in keys]
    if isinstance(tree, dict):
        return dict(zip(keys, values))
    if isinstance(tree, (list, tuple)):
        return values if isinstance(tree, list) else tuple(values)
    new = copy.copy(tree)       # keeps the subclass; works on frozen ones
    for key, value in zip(keys, values):
        object.__setattr__(new, key, value)
    return new


def tree_map(fn, tree, *rest, is_leaf=_is_array):
    """``tree`` rebuilt with ``fn(leaf, *same leaf of each rest tree)`` at
    every ``is_leaf`` node; ``rest`` trees must share ``tree``'s structure."""
    return _walk(lambda path, *leaves: fn(*leaves), is_leaf, (), tree, *rest)


def tree_leaves(tree, is_leaf=_is_array, path=()):
    """Yield ``(path, leaf)`` for every leaf, pass-through ones included."""
    keys = None if is_leaf(tree) else _keys(tree)
    if keys is None:
        yield path, tree
    for k in keys or ():
        yield from tree_leaves(_get(tree, k), is_leaf, path + (k,))


def tree_unflatten(like, leaves):
    """``like`` rebuilt with ``leaves`` (``(path, leaf)`` pairs) at every leaf."""
    by_path = dict(leaves)
    return _walk(lambda path, _old: by_path[path],
                 lambda node: _keys(node) is None, (), like)


def tree_skeleton(cls):
    """Dataclass ``cls`` with ``None`` leaves, nested by its field annotations."""
    hints = typing.get_type_hints(cls)
    return cls(**{f.name: tree_skeleton(hints[f.name])
                  if dataclasses.is_dataclass(hints[f.name]) else None
                  for f in dataclasses.fields(cls)})
