import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import esln
from esln import emit_config, parse_config
from esln.errors import ValidationError

from conftest import small_doc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_minimal_document_parses():
    cfg = parse_config(small_doc())
    assert cfg.system.dim == 2
    assert cfg.bath.n_sites == 1
    assert cfg.grids.n_t == 21


def test_matrix_entry_forms():
    doc = small_doc()
    doc["system"]["h0"] = [[0, [0.5, 0.0]], [[0.5, -0.0], 0]]
    cfg = parse_config(doc)
    assert cfg.system.h0[0, 1] == 0.5 + 0.0j


def test_complex_entries_roundtrip():
    doc = small_doc()
    doc["system"]["h0"] = [[0.0, [0.0, -0.25]], [[0.0, 0.25], 1.0]]
    cfg = parse_config(doc)
    assert cfg.system.h0[0, 1] == -0.25j
    doc2 = emit_config(cfg)
    cfg2 = parse_config(doc2)
    assert np.array_equal(cfg.system.h0, cfg2.system.h0)


def test_asymmetric_lambda_names_field():
    doc = small_doc()
    doc["bath"] = {"masses": [1.0, 1.0], "lambda": [[1.0, 0.2], [0.3, 1.0]]}
    doc["system"]["couplings"] = [[[0.1, 0], [0, -0.1]], [[0.1, 0], [0, -0.1]]]
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "bath.lambda" in str(err.value)


@pytest.mark.parametrize("mass", [0.0, -1.0])
def test_non_positive_mass_names_field(mass):
    doc = small_doc()
    doc["bath"]["masses"] = [mass]
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert err.value.path == "bath.masses"
    assert "must be positive" in str(err.value)


def _set_h0_pair(doc, value):
    doc["system"]["h0"][1][1] = [0.0, value]


def _set_amplitude(doc, value):
    amps = [0.0] * doc["grids"]["n_t"]
    amps[3] = value
    doc["system"]["drives"] = [{"matrix": [[0, 1], [1, 0]], "amplitudes": amps}]


_NON_FINITE_FIELDS = {
    "grids.t_f": lambda doc, v: doc["grids"].update(t_f=v),
    "system.beta": lambda doc, v: doc["system"].update(beta=v),
    "bath.lambda[0][0]": lambda doc, v: doc["bath"].update({"lambda": [[v]]}),
    "system.h0[0][1]": lambda doc, v: doc["system"]["h0"][0].__setitem__(1, v),
    "system.h0[1][1][1]": _set_h0_pair,
    "bath.masses[0]": lambda doc, v: doc["bath"].update(masses=[v]),
    "system.drives[0].amplitudes[3]": _set_amplitude,
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10 ** 400],
                         ids=["nan", "inf", "-inf", "int-past-float"])
@pytest.mark.parametrize("field", _NON_FINITE_FIELDS)
def test_non_finite_numbers_name_the_field(field, value):
    # JSON parsers take NaN and Infinity; a config refuses them where they stand
    doc = small_doc()
    _NON_FINITE_FIELDS[field](doc, value)
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert err.value.path == field
    assert "must be finite" in str(err.value)


def test_single_point_grid_rejected():
    doc = small_doc()
    doc["grids"]["n_t"] = 1
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "grids.n_t" in str(err.value)


def test_unknown_keys_rejected():
    doc = small_doc()
    doc["systemm"] = {}
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "systemm" in str(err.value)
    doc = small_doc()
    doc["system"]["extra_field"] = 1
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "system.extra_field" in str(err.value)
    # the factorisation, the eta-mu convention, the estimator and the
    # checkpoint cadence are fixed, not configurable
    for section, key, value in (("noise", "factorization", "takagi"),
                                ("noise", "cross_kernel", "equilibrium"),
                                ("ensemble", "normalize", "ensemble"),
                                ("ensemble", "checkpoint_interval", 256)):
        doc = small_doc()
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ValidationError) as err:
            parse_config(doc)
        assert err.value.path == f"{section}.{key}"


def test_non_hermitian_h0_named():
    doc = small_doc()
    doc["system"]["h0"] = [[0.0, 1.0], [0.0, 0.0]]
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "h0" in str(err.value)


def test_coupling_count_must_match_bath():
    doc = small_doc()
    doc["system"]["couplings"] = []
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "couplings" in str(err.value)


def test_drive_amplitude_length_checked():
    doc = small_doc()
    doc["system"]["drives"] = [{"matrix": [[1.0, 0.0], [0.0, -1.0]],
                                "amplitudes": [0.0, 1.0]}]
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "amplitudes" in str(err.value)


def test_covariance_cap_checked_at_parse_time():
    doc = small_doc()
    doc["noise"] = {"dim_cap": 10}
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "dim_cap" in str(err.value) or "grids" in str(err.value)


def test_bad_enum_values():
    # `ensemble.normalize` is no longer a setting; any value of it is refused
    doc = small_doc()
    doc["ensemble"]["normalize"] = "sometimes"
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert err.value.path == "ensemble.normalize"


def test_roundtrip_is_stable():
    doc = small_doc()
    doc["system"]["drives"] = [{"matrix": [[0.2, 0.0], [0.0, -0.2]],
                                "amplitudes": list(np.linspace(0, 1, 21))}]
    doc["output"] = {"document": "out.json", "csv": "out.csv"}
    cfg = parse_config(doc)
    emitted = emit_config(cfg)
    cfg2 = parse_config(emitted)
    assert emit_config(cfg2) == emitted
    assert cfg2.grids.t_f == cfg.grids.t_f
    assert cfg2.output_document == "out.json"


_FINITE = st.floats(-10.0, 10.0, allow_nan=False)
_POSITIVE = st.floats(0.01, 100.0)


def _entries(array):
    return [[[float(v.real), float(v.imag)] for v in row] for row in array]


@st.composite
def _hermitian(draw, dim):
    parts = np.array(draw(st.lists(_FINITE, min_size=2 * dim * dim, max_size=2 * dim * dim)))
    z = parts[:dim * dim].reshape(dim, dim) + 1j * parts[dim * dim:].reshape(dim, dim)
    return 0.5 * (z + z.conj().T)           # exactly Hermitian


@st.composite
def _documents(draw):
    """A valid configuration document and the arrays it was written from."""
    dim = draw(st.integers(1, 3))
    n_sites = draw(st.integers(0, 3))
    n_t, n_tau = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    b = np.array(draw(st.lists(_FINITE, min_size=n_sites ** 2,
                               max_size=n_sites ** 2))).reshape(n_sites, n_sites)
    lam = b @ b.T
    lam = 0.5 * (lam + lam.T) + np.eye(n_sites)     # symmetric, positive-definite
    arrays = {"h0": draw(_hermitian(dim)),
              "couplings": [draw(_hermitian(dim)) for _ in range(n_sites)],
              "masses": np.array(draw(st.lists(_POSITIVE, min_size=n_sites,
                                               max_size=n_sites)), dtype=float),
              "lambda": lam,
              "drives": [(draw(_hermitian(dim)),
                          np.array(draw(st.lists(_FINITE, min_size=n_t, max_size=n_t))))
                         for _ in range(draw(st.integers(0, 2)))]}
    doc = {
        "system": {"dim": dim, "h0": _entries(arrays["h0"]),
                   "couplings": [_entries(c) for c in arrays["couplings"]],
                   "hbar": draw(_POSITIVE), "beta": draw(_POSITIVE)},
        "bath": {"masses": arrays["masses"].tolist(), "lambda": lam.tolist()},
        "grids": {"t_f": draw(_POSITIVE), "n_t": n_t, "n_tau": n_tau},
        "ensemble": {"n_traj": draw(st.integers(3, 10 ** 6)),
                     "master_seed": draw(st.integers(0, 2 ** 63))},
    }
    if arrays["drives"]:
        doc["system"]["drives"] = [{"matrix": _entries(m), "amplitudes": a.tolist()}
                                   for m, a in arrays["drives"]]
    path = st.text("abcxyz0189 _-./", min_size=1)
    output = draw(st.fixed_dictionaries({}, optional={"document": path, "csv": path}))
    if draw(st.booleans()):
        doc["output"] = output
    return doc, arrays


def _config_arrays(cfg):
    return {"h0": cfg.system.h0, "couplings": list(cfg.system.couplings),
            "masses": cfg.bath.masses, "lambda": cfg.bath.lam,
            "drives": [(dr.matrix, dr.amplitudes) for dr in cfg.system.drive]}


def _same_bits(a, b):
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same_bits(x, y) for x, y in zip(a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60)
@given(case=_documents())
def test_roundtrip_property(case):
    # emit(parse(.)) is a fixed point after one pass, through JSON text too, and
    # every array comes back bit for bit
    doc, arrays = case
    cfg = parse_config(doc)
    emitted = emit_config(cfg)
    again = parse_config(json.loads(json.dumps(emitted)))
    assert emit_config(again) == emitted
    for key, source in arrays.items():
        assert _same_bits(_config_arrays(cfg)[key], source), key
        assert _same_bits(_config_arrays(again)[key], source), key


def test_document_must_be_object():
    with pytest.raises(ValidationError):
        parse_config([1, 2, 3])


def _key_names(node) -> set:
    """Every key of every object nested in ``node``."""
    if isinstance(node, dict):
        return set(node).union(*(_key_names(v) for v in node.values()))
    if isinstance(node, list):
        return set().union(*(_key_names(v) for v in node))
    return set()


def test_readme_schema_block_names_every_key():
    # the README's jsonc config block names exactly the keys of a document
    # with every optional section, drives and output included
    block = re.search(r"```jsonc\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    doc = small_doc(output={"document": "r.json", "csv": "r.csv"})
    doc["system"]["drives"] = [{"matrix": [[1.0, 0.0], [0.0, -1.0]], "amplitudes": [0.0] * 21}]
    emitted = emit_config(parse_config(doc))
    assert set(re.findall(r'"(\w+)":', block.group(1))) == _key_names(emitted)


def test_readme_checkpoint_paragraph_names_the_version():
    # a checkpoint refuses other versions, so the README paragraph on
    # checkpoints says which version this is
    text = README.read_text(encoding="utf-8")
    paragraph = re.search(r"`run --checkpoint PATH`.*?\n\n", text, re.S)
    assert esln.__version__ in paragraph.group(0)
