"""Records whose fields hold arrays compare by identity and hash.

A generated ``__eq__`` compares fields as tuples, which raises on arrays of
more than one element (and ``eq=True`` with ``frozen=True`` hashes them,
which raises too). Every dataclass of the package with an array-typed field
must therefore opt out with ``eq=False``.
"""

import copy
import dataclasses
import inspect
import types
import typing

import numpy as np
import pytest

from emchan import nearfield, studies, tripol
from emchan.capacity import capacity_waterfilling
from emchan.emcore import delta_aperture, delta_ports
from emchan.wavenumber import EfficiencyMatrix


def _package_dataclasses(modules):
    for module in modules:
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                yield cls


def _holds_arrays(cls) -> bool:
    """Whether a field is annotated np.ndarray, alone or in a union."""
    for hint in typing.get_type_hints(cls).values():
        union = typing.get_origin(hint) in (typing.Union, types.UnionType)
        if hint is np.ndarray or (union and np.ndarray in typing.get_args(hint)):
            return True
    return False


def _examples():
    """One instance of every array-holding record."""
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    channel = tripol.simulate_tripol_channel(rng=0)
    grouping = tripol.group_ports(np.mean(np.abs(channel.matrix) ** 2, axis=1))
    geom = nearfield.ArrayGeometry(tx_positions=pts, rx_positions=pts + [0.0, 0.0, 5.0])
    return [
        capacity_waterfilling(np.eye(2), 1.0, 1.0),
        delta_aperture(pts),
        delta_ports(2, "combining"),
        nearfield.MotionState(),
        geom,
        nearfield.BounceGeometry(pts[0], pts[1], 1.0, np.ones(2), np.ones(2), np.zeros(2),
                                 np.zeros(2), np.zeros(2), np.zeros(2)),
        nearfield.Tap(delay=0.0, coefficients=np.ones((2, 2), dtype=complex)),
        channel,
        grouping,
        tripol.NormalizationRecord(amplitude=np.ones(2), phase=np.zeros(2)),
        tripol.estimate_joint(channel, grouping, np.inf, np.inf, 0),
        EfficiencyMatrix.uniform(0.5, 3),
        studies._Assembly(variance_set=0, psi_s=np.ones((1, 2)), e_r=np.ones((1, 2))),
    ]


def test_every_array_record_has_an_example(package_modules):
    holders = {cls for cls in _package_dataclasses(package_modules) if _holds_arrays(cls)}
    assert holders == {type(x) for x in _examples()}


@pytest.mark.parametrize("record", _examples(), ids=lambda x: type(x).__name__)
def test_array_records_compare_by_identity(record):
    assert "__eq__" not in vars(type(record))
    twin = copy.copy(record)
    assert record == record
    assert record != twin
    assert hash(record) == hash(record)
