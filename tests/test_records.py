"""The record types: immutable, compared by value, validated where they
were validated, and printed as ``Name(field=value, ...)``."""

import copy
import math
import pickle

import pytest

from ptstack import (
    Layer, NonFiniteMatrixError, PeriodicSpec, PotentialStack, TransferMatrix, cheb_pair_from_gap,
    convergence_study, generalized_limit_study, periodic_matrix, predict_asymptotics, scattering_from_matrix, transmission_surface,
    unit_cell_elements, unit_cell_matrix,
)

# Each builder makes a fresh record from the same inputs.
RECORDS = {
    "CellParams": lambda: unit_cell_elements(1.0, 40.0, 0.05),
    "ChebyshevPair": lambda: cheb_pair_from_gap(7, 0.7),
    "TransferMatrix": lambda: unit_cell_matrix(1.0, 40.0, 0.05),
    "ScatteringCoefficients": lambda: scattering_from_matrix(unit_cell_matrix(1.0, 40.0, 0.05)),
    "AsymptoticPrediction": lambda: predict_asymptotics(1.0, 40.0, 1.0, 10),
    "ConvergenceRecord": lambda: convergence_study(5.0, 40.0, 1.0, [10, 20])[1],
    "GeneralizedLimitResult": lambda: generalized_limit_study(7.0, 40.0, 1.0, 1.0, [16, 32], 3.0),
    "Layer": lambda: Layer(2 - 1j, 0.5, -1.0),
    "PeriodicSpec": lambda: PeriodicSpec(40, 10, 1),
    "PotentialStack": lambda: PotentialStack([Layer(1j, 1.0, 2.0), Layer(-1j, 1.0, 0.0)]),
    "TransmissionTable": lambda: transmission_surface(40.0, 1.0, [1, 2], [1.0, 2.0]),
}
# The records that are tuples: equal to a plain tuple of their values.
NOT_TUPLES = {"PotentialStack", "TransmissionTable"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = (record._fields if name not in NOT_TUPLES else type(record).__slots__)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1.0


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"TransmissionTable"}))
def test_records_compare_and_hash_by_value(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) and repr(a).startswith(f"{name}(")
    # By repr: a copied NaN field is a new float object, unequal to itself.
    assert repr(pickle.loads(pickle.dumps(a))) == repr(a) == repr(copy.deepcopy(a))
    if name not in NOT_TUPLES:
        assert a == tuple(a) and len(a) == len(a._fields)
        assert dict(zip(a._fields, a)) == {field: getattr(a, field) for field in a._fields}


def test_transmission_table_compares_by_identity():
    a, b = RECORDS["TransmissionTable"](), RECORDS["TransmissionTable"]()
    assert a == a and a != b and hash(a) != hash(b)
    assert repr(a) == repr(b) == repr(copy.copy(a)) == repr(pickle.loads(pickle.dumps(a)))


def test_transmission_table_indexing():
    # Each column is indexed [N][k]; len counts the points.
    table = RECORDS["TransmissionTable"]()
    assert len(table) == 4
    assert repr(table).startswith("TransmissionTable(n_values=(1, 2), k_values=[1.0, 2.0], big_t=[[")
    for name in ("big_t", "big_r_left", "big_r_right", "absdet_err"):
        assert [len(row) for row in getattr(table, name)] == [2, 2], name
    spot = scattering_from_matrix(periodic_matrix(PeriodicSpec(40.0, 2, 1.0), 1.0))
    assert (table.n_values[1], table.k_values[0], table.big_t[1][0]) == (2, 1.0, spot.big_t)


def test_transfer_matrix_identity():
    eye = TransferMatrix.identity(2)
    assert eye == TransferMatrix(1 + 0j, 0j, 0j, 1 + 0j, 2.0) and type(eye.k) is float
    assert (eye.det, eye.absdet_err, eye.is_finite) == (1, 0.0, True)
    m11, m12, m21, m22, k = eye
    assert (m11, m12, m21, m22, k) == (1, 0, 0, 1, 2.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Layer(1j, 0.0), "layer width must be finite and > 0, got 0.0"),
        (lambda: Layer(1j, -1), "layer width must be finite and > 0, got -1.0"),
        (lambda: Layer(1j, 1.0, math.inf), "layer offset must be finite, got inf"),
        (lambda: Layer(complex(math.nan, 0.0), 1.0), "layer height must be finite, got (nan+0j)"),
        (lambda: PeriodicSpec(-1, 2, 1), "V must be finite and > 0, got -1.0"),
        (lambda: PeriodicSpec(1, 0, 1), "n_cells must be an integer >= 1, got 0"),
        (lambda: PeriodicSpec(1, 2.5, 1), "n_cells must be an integer >= 1, got 2.5"),
        (lambda: PeriodicSpec(1, 2, math.inf), "total_length must be finite and > 0, got inf"),
        (lambda: PotentialStack([Layer(1, 1.0, 0.0), Layer(2, 1.0, 0.5)]),
         "layers overlap: [0.0, 1.0] and [0.5, 1.5]"),
    ],
)
def test_validating_records_raise_as_before(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_validating_records_keep_their_values():
    layer = Layer(height=1j, width=1)
    assert (layer.height, layer.width, layer.offset, layer.right_edge) == (1j, 1, 0.0, 1.0)
    spec = PeriodicSpec(v=40, n_cells=10.0, total_length=1)
    assert [type(value) for value in spec] == [float, int, float] and spec.slab_width == 0.05
    stack = RECORDS["PotentialStack"]()
    assert [layer.offset for layer in stack.layers] == [0.0, 2.0]
    assert (len(stack), stack.left_edge, stack.right_edge, stack.right_edge - stack.left_edge) == (2, 0.0, 3.0, 3.0)
    assert repr(PotentialStack([])) == "PotentialStack(layers=())"


def test_replace_validates():
    with pytest.raises(ValueError, match="n_cells must be an integer >= 1, got 0"):
        PeriodicSpec(40, 10, 1)._replace(n_cells=0)
    with pytest.raises(ValueError, match="layer width"):
        Layer(1j, 1.0)._replace(width=0.0)
    assert PeriodicSpec(40, 10, 1)._replace(n_cells=20) == PeriodicSpec(40, 20, 1)


def test_overflow_messages_print_the_spec():
    with pytest.raises(NonFiniteMatrixError) as info:
        periodic_matrix(PeriodicSpec(1e5, 50, 50.0), 1.0)
    assert str(info.value) == (
        "N-cell matrix overflows the double range at k = 1.0, "
        "PeriodicSpec(v=100000.0, n_cells=50, total_length=50.0)"
    )
    with pytest.raises(NonFiniteMatrixError, match=r"^n_cells = 1\.000e\+400 is beyond the double range$"):
        PeriodicSpec(1, 10**400, 1)
