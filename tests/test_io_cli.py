import errno
import json
import math
import os
import re
import stat
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from fcoherence import (
    DensityMatrix,
    GioChannel,
    KrausChannel,
    builtin_channel,
    channel_to_json,
    load_channel,
    load_channel_or_builtin,
    load_state,
    random_channel,
    random_density,
    random_gio,
    random_pure,
    save_channel,
    save_state,
    state_to_json,
)
import fcoherence.cli as cli
import fcoherence.io as fio
from fcoherence.cli import build_parser, main
from fcoherence.errors import ChannelValidationError, FileFormatError, NotHermitian
from fcoherence.io import _parse_complex_matrix, dumps17


def plus_state():
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


def write_state(path, rho):
    save_state(rho, str(path))
    return str(path)


class TestFormatFloat:
    """dumps17 writes a float scalar with 17 significant digits."""

    @pytest.mark.parametrize("x", [0.0, 1.0, 1.0 / 3.0, 0.1, -2.5e-17, 1e300])
    def test_round_trips_doubles(self, x):
        assert float(dumps17(x)) == x

    def test_non_finite(self):
        assert dumps17(math.inf) == '"inf"'
        assert dumps17(-math.inf) == '"-inf"'
        assert dumps17(math.nan) == '"nan"'

    @pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -1.0 / 3.0, 1e16, 2.0**-1074 * 3, np.float32(0.1)])
    def test_is_the_17_digit_format(self, x):
        assert dumps17(x) == f"{float(x):.17g}"

    @pytest.mark.parametrize(
        "x, text",
        [
            (np.float32(0.1), "0.10000000149011612"),
            (np.complex64(1 + 2j), "[1, 2]"),
            (np.complex64(0.1 - 0.1j), "[0.10000000149011612, -0.10000000149011612]"),
            (np.complex128(1.5 - 2j), "[1.5, -2]"),
            (-0.0, "-0"),
            (5e-324, "4.9406564584124654e-324"),
            (np.float64(-math.inf), '"-inf"'),
            (complex(math.inf, math.nan), '["inf", "nan"]'),
        ],
        ids=["float32", "complex64", "complex64-inexact", "complex128", "neg-zero", "subnormal", "inf", "nan"],
    )
    def test_scalar_bytes(self, x, text):
        assert dumps17(x) == text


class TestDumps17:
    def test_basic_document(self):
        doc = {"a": 1, "b": 0.5, "c": "x", "d": [1.0, 2.0], "e": None, "f": True}
        parsed = json.loads(dumps17(doc))
        assert parsed == {"a": 1, "b": 0.5, "c": "x", "d": [1.0, 2.0], "e": None, "f": True}

    def test_booleans_stay_booleans(self):
        assert dumps17(True) == "true"
        assert dumps17(np.bool_(False)) == "false"

    def test_numpy_scalars_and_arrays(self):
        assert dumps17(np.int64(3)) == "3"
        assert json.loads(dumps17(np.array([0.25, 0.75]))) == [0.25, 0.75]

    def test_complex_becomes_pair(self):
        assert json.loads(dumps17(1.5 - 2.0j)) == [1.5, -2.0]

    def test_inf_is_quoted(self):
        assert json.loads(dumps17({"value": math.inf})) == {"value": "inf"}

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            dumps17(object())

    def test_floats_survive_round_trip(self):
        values = [1.0 / 3.0, 2.0 ** -52, 0.1 + 0.2]
        assert json.loads(dumps17(values)) == values


# The seed's per-cell writer and reader, kept as references for the
# batched ones in fcoherence.io.
def ref_matrix_lines(matrix, indent):
    rows = []
    for row in np.asarray(matrix):
        cells = ", ".join(
            f"[{dumps17(z.real)}, {dumps17(z.imag)}]" for z in row
        )
        rows.append(f"{indent}[{cells}]")
    return ",\n".join(rows)


def ref_state_to_json(rho):
    return (
        "{\n"
        f'  "dim": {rho.dim},\n'
        '  "matrix": [\n'
        f"{ref_matrix_lines(rho.matrix, '    ')}\n"
        "  ]\n"
        "}\n"
    )


def ref_channel_to_json(ch):
    blocks = []
    for k in ch.kraus_ops:
        blocks.append("    [\n" + ref_matrix_lines(k, "      ") + "\n    ]")
    label = f'  "label": {json.dumps(ch.label)},\n' if ch.label else ""
    return (
        "{\n"
        f'  "dim": {ch.dim},\n'
        f"{label}"
        '  "kraus": [\n'
        + ",\n".join(blocks)
        + "\n  ]\n"
        "}\n"
    )


def ref_parse_complex_matrix(raw, dim, what):
    if not isinstance(raw, list) or len(raw) != dim:
        raise FileFormatError(f"{what}: expected {dim} rows")
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise FileFormatError(f"{what}: row {i} must have {dim} cells")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in cell)
            ):
                raise FileFormatError(
                    f"{what}: cell ({i},{j}) must be a [re, im] pair of numbers"
                )
            out[i, j] = complex(float(cell[0]), float(cell[1]))
    return out


SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e300]


def writer_arrays():
    rng = np.random.default_rng(3)
    real = rng.standard_normal(40)
    real[: len(SPECIAL)] = SPECIAL
    cplx = np.empty(real.shape, dtype=complex)
    cplx.real, cplx.imag = real, rng.permutation(real)
    out = []
    for base in (real, cplx):
        out += [
            ("empty", base[:0]),
            ("vector", base[:3]),
            ("square", base[2:6].reshape(2, 2)),
            ("stack", base[:36].reshape(4, 3, 3)),
            ("strided", base[:36].reshape(4, 9)[:, ::2]),
            ("fortran", np.asfortranarray(base[:12].reshape(3, 4))),
            ("empty-rows", base[:0].reshape(2, 0)),
            ("scalar", np.array(base[5])),
        ]
    readonly = cplx[:9].reshape(3, 3).copy()
    readonly.setflags(write=False)
    out.append(("readonly", readonly))
    out.append(("float32", real[6:10].astype(np.float32)))
    return [pytest.param(a, id=f"{a.dtype}-{name}") for name, a in out]


class TestBatchedWriter:
    @pytest.mark.parametrize("a", writer_arrays())
    def test_dumps17_array_matches_list_path(self, a):
        assert dumps17(a) == dumps17(a.tolist())

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_state_layout_matches_seed(self, d):
        rho = random_density(d, d, seed=d)
        assert state_to_json(rho) == ref_state_to_json(rho)
        rng = np.random.default_rng(d)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m.flat[: min(d * d, 6)] = np.array(SPECIAL)[: min(d * d, 6)] * (1 - 1j)
        fake = SimpleNamespace(dim=d, matrix=np.asfortranarray(m))
        assert state_to_json(fake) == ref_state_to_json(fake)

    @pytest.mark.parametrize(
        "ch",
        [random_gio(3, 2, seed=1), random_channel(2, 3, seed=2), random_gio(1, 1, seed=3)],
        ids=["gio", "kraus", "dim1"],
    )
    def test_channel_layout_matches_seed(self, ch):
        assert channel_to_json(ch) == ref_channel_to_json(ch)
        unlabelled = SimpleNamespace(dim=ch.dim, label=None, kraus_ops=ch.kraus_ops[:, ::-1])
        assert channel_to_json(unlabelled) == ref_channel_to_json(unlabelled)


def reader_cases():
    good = [[[0.5, 0.0], [0.25, -0.125]], [[0.25, 0.125], [0.5, -0.0]]]
    cases = {
        "floats": (good, 2),
        "all-int": ([[[1, 0], [0, 0]], [[0, 0], [0, -3]]], 2),
        "mixed-int-float": ([[[1, 0.5], [2**53 + 1, 0]], [[0.0, 2**70 + 3], [-7, 1e-300]]], 2),
        "string-cell": ([[[0.5, "0"], [0, 0]], [[0, 0], [0.5, 0]]], 2),
        "string-for-cell": ([["ab", [0, 0]], [[0, 0], [0.5, 0]]], 2),
        "null-cell": ([[[0.5, 0], [0, 0]], [[0, None], [0.5, 0]]], 2),
        "bool-cell": ([[[True, 0]]], 1),
        "nested-cell": ([[[[0.5], [0]]]], 1),
        "nested-value": ([[[0.5, [0]], [0, 0]], [[0, 0], [0.5, 0]]], 2),
        "one-element-cell": ([[[0.5], [0, 0]], [[0, 0], [0.5, 0]]], 2),
        "three-element-cell": ([[[0.5, 0, 0], [0, 0]], [[0, 0], [0.5, 0]]], 2),
        "all-cells-three-elements": ([[[0.5, 0, 0]]], 1),
        "ragged-rows": ([[[0.5, 0], [0, 0]], [[0.5, 0]]], 2),
        "row-not-list": ([[[0.5, 0], [0, 0]], 3], 2),
        "wrong-row-count": (good[:1], 2),
        "too-many-rows": (good, 1),
        "not-a-list": ({"a": 1}, 1),
        "dict-cell": ([[{"re": 1}]], 1),
        "number": (1.0, 1),
    }
    return [pytest.param(raw, dim, id=name) for name, (raw, dim) in cases.items()]


class TestBatchedReader:
    @pytest.mark.parametrize("raw, dim", reader_cases())
    def test_matches_per_cell_reference(self, raw, dim):
        try:
            want = ref_parse_complex_matrix(raw, dim, "m")
        except FileFormatError as exc:
            with pytest.raises(FileFormatError) as got:
                _parse_complex_matrix(raw, dim, "m")
            assert str(got.value) == str(exc)
        else:
            got = _parse_complex_matrix(raw, dim, "m")
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_non_finite_floats_pass_through(self):
        raw = [[[math.inf, -0.0]]]
        assert _parse_complex_matrix(raw, 1, "m").tobytes() == ref_parse_complex_matrix(raw, 1, "m").tobytes()


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        rho = random_density(3, 3, seed=7)
        path = write_state(tmp_path / "rho.json", rho)
        back = load_state(path)
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)

    def test_serialization_is_lossless(self, tmp_path):
        # the parse is exact; only the validation rebuild may perturb entries
        rho = random_density(4, 2, seed=8)
        path = write_state(tmp_path / "r.json", rho)
        with open(path) as fh:
            doc = json.loads(fh.read())
        raw = np.array(
            [[complex(c[0], c[1]) for c in row] for row in doc["matrix"]]
        )
        np.testing.assert_array_equal(raw, rho.matrix)

    def test_serializer_is_deterministic(self):
        rho = random_density(3, 3, seed=8)
        assert state_to_json(rho) == state_to_json(rho)

    def test_missing_file(self):
        with pytest.raises(FileFormatError):
            load_state("/nonexistent/state.json")

    def test_missing_file_message(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.symlink_to(tmp_path / "absent.json")
        for path in (str(tmp_path / "absent.json"), str(broken)):
            with pytest.raises(FileFormatError, match=f"^no such file: {re.escape(path)}$"):
                load_state(path)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(FileFormatError):
            load_state(str(p))

    def test_top_level_must_be_object(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(FileFormatError):
            load_state(str(p))

    def test_missing_keys(self, tmp_path):
        p = tmp_path / "keys.json"
        p.write_text('{"dim": 2}')
        with pytest.raises(FileFormatError):
            load_state(str(p))

    def test_wrong_row_count(self, tmp_path):
        p = tmp_path / "rows.json"
        p.write_text('{"dim": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]]]}')
        with pytest.raises(FileFormatError):
            load_state(str(p))

    def test_cell_must_be_pair(self, tmp_path):
        p = tmp_path / "cell.json"
        p.write_text('{"dim": 1, "matrix": [[1.0]]}')
        with pytest.raises(FileFormatError):
            load_state(str(p))

    @pytest.mark.parametrize("target", [".", "missing/out.json"], ids=["directory", "missing-directory"])
    def test_unwritable_path_is_file_format_error(self, tmp_path, target):
        path = str(tmp_path / target)
        with pytest.raises(FileFormatError, match="cannot write"):
            save_state(random_density(2, 2, seed=1), path)
        with pytest.raises(FileFormatError, match="cannot write"):
            save_channel(random_gio(2, 2, seed=1), path)

    def test_validation_still_applies(self, tmp_path):
        p = tmp_path / "nonherm.json"
        p.write_text(
            '{"dim": 2, "matrix": [[[0.5, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}'
        )
        with pytest.raises(NotHermitian):
            load_state(str(p))


class TestInPlaceWriter:
    """Every file the package writes is overwritten in place."""

    @pytest.mark.parametrize("old_size", [10_000, 3], ids=["longer", "shorter"])
    def test_existing_file_holds_exactly_the_new_bytes(self, tmp_path, old_size):
        path = tmp_path / "state.json"
        path.write_bytes(b"x" * old_size)
        save_state(plus_state(), str(path))
        assert path.read_bytes() == state_to_json(plus_state()).encode()

    def test_out_dev_null_exits_zero(self, capsys):
        assert main(["demo", "log-chain", "--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_pipe_receives_the_document(self):
        r, w = os.pipe()
        with os.fdopen(r, "rb") as reader:
            try:
                save_state(plus_state(), f"/proc/self/fd/{w}")
            finally:
                os.close(w)
            assert reader.read() == state_to_json(plus_state()).encode()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_is_file_format_error(self, capsys):
        with pytest.raises(FileFormatError, match="cannot write /dev/full"):
            save_state(plus_state(), "/dev/full")
        assert main(["demo", "log-chain", "--out", "/dev/full"]) == 2
        assert "fcoherence: cannot write /dev/full" in capsys.readouterr().err

    def test_symlink_writes_through_to_its_target(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_bytes(b"x" * 10_000)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        save_channel(random_gio(2, 2, seed=3), str(link))
        assert link.is_symlink()
        assert target.read_bytes() == channel_to_json(random_gio(2, 2, seed=3)).encode()

    def test_new_file_mode_matches_open(self, tmp_path):
        old = os.umask(0o027)
        try:
            with open(tmp_path / "ref.json", "w"):
                pass
            save_state(plus_state(), str(tmp_path / "new.json"))
        finally:
            os.umask(old)
        mode = stat.S_IMODE(os.stat(tmp_path / "new.json").st_mode)
        assert mode == stat.S_IMODE(os.stat(tmp_path / "ref.json").st_mode)

    def test_failed_write_leaves_an_empty_file(self, tmp_path, monkeypatch):
        path = tmp_path / "state.json"
        path.write_bytes(b"x" * 10_000)
        real_write = os.write
        calls = []

        def ten_bytes_then_full(fd, data):
            calls.append(fd)
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data[:10])

        monkeypatch.setattr(fio.os, "write", ten_bytes_then_full)
        with pytest.raises(FileFormatError, match="cannot write .*No space left on device"):
            save_state(plus_state(), str(path))
        monkeypatch.undo()
        assert len(calls) == 2
        assert path.read_bytes() == b""


class TestChannelFiles:
    def test_round_trip(self, tmp_path):
        ch = random_gio(3, 2, seed=9)
        path = tmp_path / "ch.json"
        save_channel(ch, str(path))
        back = load_channel(str(path))
        np.testing.assert_allclose(back.kraus_ops, ch.kraus_ops, atol=1e-15)
        assert back.label == ch.label

    @pytest.mark.parametrize(
        "ch", [random_gio(2, 3, seed=10), random_channel(3, 2, seed=10)], ids=["gio", "kraus"]
    )
    def test_rewrite_is_byte_identical(self, tmp_path, ch):
        path = tmp_path / "ch.json"
        save_channel(ch, str(path))
        assert channel_to_json(load_channel(str(path))) == channel_to_json(ch)

    def test_diagonal_file_loads_as_gio(self, tmp_path):
        ch = random_gio(4, 3, seed=13)
        path = tmp_path / "ch.json"
        save_channel(ch, str(path))
        back = load_channel(str(path))
        assert isinstance(back, GioChannel)
        rho = random_density(4, 4, seed=14)
        diag = np.stack([np.diagonal(k) for k in back.kraus_ops])
        schur = np.einsum("jn,jm->nm", diag, diag.conj()) * rho.matrix
        np.testing.assert_allclose(back.apply_matrix(rho.matrix), schur, atol=1e-15)
        np.testing.assert_allclose(back.apply(rho).matrix, schur, atol=1e-14)

    def test_non_diagonal_file_loads_as_kraus(self, tmp_path):
        path = tmp_path / "ch.json"
        save_channel(random_channel(3, 2, seed=15), str(path))
        assert type(load_channel(str(path))) is KrausChannel

    def test_incomplete_kraus_rejected(self, tmp_path):
        p = tmp_path / "half.json"
        p.write_text(
            '{"dim": 1, "kraus": [[[[0.5, 0.0]]]]}'
        )
        with pytest.raises(ChannelValidationError):
            load_channel(str(p))

    def test_kraus_must_be_list(self, tmp_path):
        p = tmp_path / "k.json"
        p.write_text('{"dim": 2, "kraus": "nope"}')
        with pytest.raises(FileFormatError):
            load_channel(str(p))

    def test_label_must_be_string(self, tmp_path):
        p = tmp_path / "lbl.json"
        p.write_text('{"dim": 1, "kraus": [[[[1.0, 0.0]]]], "label": 3}')
        with pytest.raises(FileFormatError):
            load_channel(str(p))


class TestBuiltinChannels:
    def test_grammar_hits(self):
        assert builtin_channel("depol-ext:2").dim == 4
        assert builtin_channel("erase-ext:3").dim == 9
        assert builtin_channel("dephase:3").dim == 3

    def test_grammar_misses_return_none(self):
        assert builtin_channel("somefile.json") is None
        assert builtin_channel("dephase") is None

    def test_bad_dimension_text(self):
        with pytest.raises(FileFormatError):
            builtin_channel("depol-ext:x")

    def test_dimension_too_small(self):
        with pytest.raises(FileFormatError):
            builtin_channel("dephase:1")

    def test_fallback_to_file(self, tmp_path):
        ch = random_gio(2, 2, seed=11)
        path = tmp_path / "ch.json"
        save_channel(ch, str(path))
        back = load_channel_or_builtin(str(path))
        np.testing.assert_allclose(back.kraus_ops, ch.kraus_ops, atol=1e-15)


class TestCliCommands:
    def test_coherence_plus_state(self, tmp_path, capsys):
        path = write_state(tmp_path / "plus.json", plus_state())
        assert main(["coherence", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(math.log(2.0), abs=1e-12)
        assert doc["f_name"] == "neg_log"
        assert doc["variant"] == "plain"
        assert len(doc["eigenvalues"]) == 2

    def test_coherence_hat_variant(self, tmp_path, capsys):
        path = write_state(tmp_path / "plus.json", plus_state())
        assert main(["coherence", path, "--f", "power:0.5", "--variant", "hat"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(4.0 * math.sqrt(2.0) - 4.0, abs=1e-12)

    def test_divergence(self, tmp_path, capsys):
        a = write_state(tmp_path / "a.json", DensityMatrix.from_diagonal([1.0, 0.0]))
        b = write_state(tmp_path / "b.json", DensityMatrix.maximally_mixed(2))
        assert main(["divergence", a, b]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_divergence_infinite(self, tmp_path, capsys):
        a = write_state(tmp_path / "a.json", DensityMatrix.maximally_mixed(2))
        b = write_state(tmp_path / "b.json", DensityMatrix.from_diagonal([1.0, 0.0]))
        assert main(["divergence", a, b]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "inf"

    @pytest.mark.parametrize("spec", ["neg_log", "tsallis:1.5", "power:1.5"])
    def test_divergence_of_a_pure_state_with_itself(self, tmp_path, capsys, spec):
        path = write_state(tmp_path / "p.json", random_pure(3, 1).as_density())
        assert main(["divergence", path, path, "--f", spec]) == 0
        assert abs(json.loads(capsys.readouterr().out)["value"]) <= 1e-12

    def test_entropy(self, tmp_path, capsys):
        path = write_state(tmp_path / "d.json", DensityMatrix.from_diagonal([0.7, 0.3]))
        assert main(["entropy", path, "--variant", "hat"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.6108643020548935, abs=1e-12)

    def test_channel_builtin_action(self, tmp_path, capsys):
        rho = plus_state().tensor(DensityMatrix.from_diagonal([1.0, 0.0]))
        path = write_state(tmp_path / "in.json", rho)
        assert main(["channel", "depol-ext:2", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        got = np.array([[complex(c[0], c[1]) for c in row] for row in doc["matrix"]])
        want = plus_state().tensor(DensityMatrix.maximally_mixed(2)).matrix
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_channel_selective(self, tmp_path, capsys):
        path = write_state(tmp_path / "plus.json", plus_state())
        assert main(["channel", "dephase:2", path, "--selective"]) == 0
        doc = json.loads(capsys.readouterr().out)
        probs = [o["probability"] for o in doc["outcomes"]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_channel_file(self, tmp_path, capsys):
        ch = random_gio(2, 2, seed=12)
        cpath = tmp_path / "ch.json"
        save_channel(ch, str(cpath))
        spath = write_state(tmp_path / "s.json", plus_state())
        assert main(["channel", str(cpath), spath]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 2

    def test_out_writes_file(self, tmp_path, capsys):
        path = write_state(tmp_path / "plus.json", plus_state())
        target = tmp_path / "result.json"
        assert main(["coherence", path, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["value"] == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["coherence", "{a}", "--variant", "hat"],
            ["entropy", "{a}"],
            ["divergence", "{a}", "{b}"],
            ["channel", "{ch}", "{a}"],
            ["channel", "{ch}", "{a}", "--selective"],
        ],
        ids=["coherence", "entropy", "divergence", "channel", "channel-selective"],
    )
    def test_out_file_equals_stdout(self, tmp_path, capsys, argv):
        paths = {
            "a": write_state(tmp_path / "a.json", plus_state()),
            "b": write_state(tmp_path / "b.json", DensityMatrix.from_diagonal([0.7, 0.3])),
            "ch": str(tmp_path / "ch.json"),
        }
        save_channel(random_gio(2, 2, seed=12), paths["ch"])
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        target = tmp_path / "out.json"
        assert main(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == printed.encode()
        assert printed.count("\n") == 1

    def test_verify_single_suite(self, capsys):
        code = main(
            ["verify", "--suite", "sio-counterexample", "--trials", "1", "--dims", "2", "--seed", "0"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["suite"] == "sio-counterexample"
        assert doc["passed"] is True

    def test_verify_multiple_lines(self, capsys):
        code = main(["verify", "--trials", "2", "--dims", "2", "--seed", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 6
        for line in lines:
            json.loads(line)


class TestCliExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert main(["coherence", "/nonexistent.json"]) == 2
        assert "fcoherence:" in capsys.readouterr().err

    @pytest.mark.parametrize("target", [".", "missing/out.json"], ids=["directory", "missing-directory"])
    def test_unwritable_out_is_input_error(self, tmp_path, capsys, target):
        assert main(["demo", "log-chain", "--out", str(tmp_path / target)]) == 2
        assert "fcoherence: cannot write" in capsys.readouterr().err

    def test_unparseable_flags(self, capsys):
        assert main(["coherence"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_invalid_state_is_validation_error(self, tmp_path, capsys):
        p = tmp_path / "trace.json"
        p.write_text(
            '{"dim": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}'
        )
        assert main(["coherence", str(p)]) == 3
        capsys.readouterr()

    def test_unknown_generator(self, tmp_path, capsys):
        path = write_state(tmp_path / "s.json", plus_state())
        assert main(["coherence", path, "--f", "bogus"]) == 4
        assert main(["coherence", path, "--f", "power:2.5"]) == 4
        capsys.readouterr()

    def test_unsupported_limit_is_generator_error(self, tmp_path, capsys):
        # power:1.5 has no finite weighted tail, so a rank-one state cannot be scored.
        path = write_state(tmp_path / "pure.json", plus_state())
        for argv in (["coherence", path], ["entropy", path]):
            assert main(argv + ["--f", "power:1.5"]) == 4
            assert "weighted tail" in capsys.readouterr().err

    def test_dimension_mismatch(self, tmp_path, capsys):
        a = write_state(tmp_path / "a.json", DensityMatrix.maximally_mixed(2))
        b = write_state(tmp_path / "b.json", DensityMatrix.maximally_mixed(3))
        assert main(["divergence", a, b]) == 5
        capsys.readouterr()

    def test_channel_state_dimension_mismatch(self, tmp_path, capsys):
        path = write_state(tmp_path / "s.json", plus_state())
        assert main(["channel", "dephase:3", path]) == 5
        capsys.readouterr()

    @pytest.mark.parametrize(
        "doc",
        [
            '{"dim": true, "matrix": [[[1.0, 0.0]]]}',
            '{"dim": 1, "matrix": [[[true, false]]]}',
            '{"dim": 2, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, false]]]}',
        ],
        ids=["bool-dim", "bool-cells", "one-bool-cell"],
    )
    def test_json_booleans_in_state_file(self, tmp_path, capsys, doc):
        p = tmp_path / "s.json"
        p.write_text(doc)
        assert main(["coherence", str(p)]) == 2
        assert "fcoherence:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            '{"dim": true, "kraus": [[[[1.0, 0.0]]]]}',
            '{"dim": 1, "kraus": [[[[true, 0.0]]]]}',
        ],
        ids=["bool-dim", "bool-cell"],
    )
    def test_json_booleans_in_channel_file(self, tmp_path, capsys, doc):
        state = write_state(tmp_path / "s.json", DensityMatrix.maximally_mixed(1))
        p = tmp_path / "c.json"
        p.write_text(doc)
        assert main(["channel", str(p), state]) == 2
        assert "fcoherence:" in capsys.readouterr().err

    def test_invalid_utf8_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        p.write_bytes(b'{"dim": 1, "matrix": [[[\xff, 0]]]}')
        assert main(["coherence", str(p)]) == 2
        assert "fcoherence:" in capsys.readouterr().err

    def test_oversized_extension_is_typed_error(self, tmp_path, capsys):
        # Its outcome list would take 16 * 11^6 bytes, past EXTENSION_DENSE_BYTES;
        # the plain application stays at the state's own size.
        path = write_state(tmp_path / "s.json", DensityMatrix.maximally_mixed(121))
        assert main(["channel", "depol-ext:11", path, "--selective"]) == 5
        assert "at most" in capsys.readouterr().err
        assert main(["channel", "depol-ext:11", path, "--out", str(tmp_path / "out.json")]) == 0
        assert main(["channel", "depol-ext:40", path]) == 5
        assert "does not match" in capsys.readouterr().err

    def test_verify_zero_trials(self, capsys):
        assert main(["verify", "--trials", "0"]) == 2
        capsys.readouterr()

    def test_verify_bad_dims(self, capsys):
        assert main(["verify", "--dims", "2,x", "--trials", "1"]) == 2
        capsys.readouterr()

    def test_verify_unknown_generator(self, capsys):
        assert main(["verify", "--f", "bogus", "--trials", "1", "--dims", "2"]) == 4
        capsys.readouterr()

    def test_verify_failing_suite(self, capsys, monkeypatch):
        import fcoherence.cli as cli
        from fcoherence.verify import VerificationReport

        def failing(cfg):
            return VerificationReport(
                "entropy-bounds", False, 1, 1.0, 0, cfg.tol_violation
            )

        monkeypatch.setitem(cli.SUITES, "entropy-bounds", failing)
        code = main(["verify", "--suite", "entropy-bounds", "--trials", "1", "--dims", "2"])
        assert code == 6
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False

    def test_verify_empty_generator_list(self, capsys):
        assert main(["verify", "--f", ",", "--trials", "1", "--dims", "2"]) == 2
        assert "f_list must name at least one generator" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--f", "", "f_list must name at least one generator"),
            ("--dims", "", "--dims must be comma-separated integers"),
        ],
        ids=["f-empty", "dims-empty"],
    )
    def test_verify_empty_flag_is_input_error(self, capsys, monkeypatch, flag, value, message):
        def no_suites(cfg):
            raise AssertionError("a suite ran")

        for name in list(cli.SUITES):
            monkeypatch.setitem(cli.SUITES, name, no_suites)
        monkeypatch.setattr(cli, "run_all", no_suites)
        assert main(["verify", flag, value, "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_verify_only_increasing_generator_trivial_pass(self, capsys):
        code = main(
            [
                "verify",
                "--suite",
                "strong-monotonicity",
                "--f",
                "power:1.5",
                "--trials",
                "1",
                "--dims",
                "2",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 0
        assert "skipped" in doc["notes"]

    def test_demo_names_enforced(self, capsys):
        assert main(["demo", "unknown-demo"]) == 2
        capsys.readouterr()


# Matrices json.load or float() cannot turn into doubles.
BAD_NUMBER_MATRICES = {
    "400-digit-int": "[[[1" + "0" * 399 + ", 0]]]",
    "5000-digit-int": "[[[1" + "0" * 4999 + ", 0]]]",
    "deep-nesting": "[" * 100000 + "]" * 100000,
}


class TestUnreadableNumbers:
    @pytest.mark.parametrize("command", ["coherence", "channel"])
    @pytest.mark.parametrize("case", sorted(BAD_NUMBER_MATRICES))
    def test_typed_error_not_traceback(self, tmp_path, capsys, command, case):
        matrix = BAD_NUMBER_MATRICES[case]
        bad = tmp_path / "bad.json"
        if command == "coherence":
            bad.write_text(f'{{"dim": 1, "matrix": {matrix}}}')
            argv = ["coherence", str(bad)]
        else:
            bad.write_text(f'{{"dim": 1, "kraus": [{matrix}]}}')
            state = write_state(tmp_path / "s.json", DensityMatrix.maximally_mixed(1))
            argv = ["channel", str(bad), state]
        assert main(argv) == 2
        assert "fcoherence:" in capsys.readouterr().err


class TestCachedParser:
    def test_defaults_do_not_leak_between_calls(self, tmp_path, capsys):
        path = write_state(tmp_path / "plus.json", plus_state())
        assert main(["coherence", path, "--variant", "hat"]) == 0
        assert json.loads(capsys.readouterr().out)["variant"] == "hat"
        assert main(["coherence", path]) == 0
        assert json.loads(capsys.readouterr().out)["variant"] == "plain"

    def test_bad_flag_then_valid_command(self, tmp_path, capsys):
        path = write_state(tmp_path / "plus.json", plus_state())
        assert main(["coherence", path, "--bogus"]) == 2
        capsys.readouterr()
        assert main(["coherence", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_build_parser_returns_fresh_parsers(self):
        assert build_parser() is not build_parser()

    def test_main_builds_the_parser_at_most_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting():
            calls.append(1)
            return build_parser()

        path = write_state(tmp_path / "plus.json", plus_state())
        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for argv in (["coherence", path], ["entropy", path], ["frobnicate"]):
                main(argv)
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()
        assert len(calls) <= 1

    @pytest.mark.parametrize("argv", [["--help"], ["channel", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        assert main(argv) == 0
        assert main(argv) == 0
        assert "usage:" in capsys.readouterr().out


class TestDemos:
    @pytest.mark.parametrize("name", ["log-chain", "sio-separation", "max-coherent"])
    def test_demo_passes(self, name, capsys):
        assert main(["demo", name]) == 0
        out = capsys.readouterr().out.strip()
        for line in out.split("\n"):
            assert json.loads(line)["pass"] is True

    def test_log_chain_seed_changes_state(self, capsys):
        assert main(["demo", "log-chain", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["demo", "log-chain", "--seed", "4"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_log_chain_deterministic(self, capsys):
        assert main(["demo", "log-chain", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["demo", "log-chain", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_env_seed_matches_flag(self, capsys, monkeypatch):
        assert main(["demo", "log-chain", "--seed", "11"]) == 0
        via_flag = capsys.readouterr().out
        monkeypatch.setenv("QCOH_SEED", "11")
        assert main(["demo", "log-chain"]) == 0
        assert capsys.readouterr().out == via_flag

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("QCOH_SEED", "abc")
        assert main(["demo", "log-chain"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--trials", "1", "--dims", "2"], ["demo", "log-chain"], ["demo", "max-coherent"]],
        ids=["verify", "log-chain", "max-coherent"],
    )
    def test_negative_seed_exits_2(self, argv, capsys, monkeypatch):
        assert main(argv + ["--seed", "-1"]) == 2
        assert "--seed must be a non-negative integer" in capsys.readouterr().err
        monkeypatch.setenv("QCOH_SEED", "-3")
        assert main(argv) == 2
        assert "QCOH_SEED must be a non-negative integer" in capsys.readouterr().err

    def test_failing_demo_exits_6_and_says_so(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.DEMOS, "log-chain", lambda seed: ([{"check": "log-chain", "pass": False}], False))
        assert main(["demo", "log-chain"]) == 6
        captured = capsys.readouterr()
        assert captured.out == '{"check": "log-chain", "pass": false}\n'
        assert captured.err == "fcoherence: demo log-chain: checks failed\n"


class TestStdoutWriteFailure:
    """A standard output that takes no bytes gives exit 2 and one line on
    standard error, not a traceback."""

    @staticmethod
    def run(stdout, argv):
        return subprocess.run(
            [sys.executable, "-m", "fcoherence", *argv], stdout=stdout, stderr=subprocess.PIPE, text=True
        )

    @pytest.fixture(params=["short", "long"])
    def argv(self, request, tmp_path):
        if request.param == "short":
            return ["demo", "max-coherent"]
        # About 100 kB of output, past any stdio buffer.
        return ["channel", "dephase:64", write_state(tmp_path / "s.json", random_density(64, 64, seed=1))]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self, argv):
        with open("/dev/full", "w") as full:
            proc = self.run(full, argv)
        assert (proc.returncode, proc.stderr) == (2, "fcoherence: cannot write standard output: No space left on device\n")

    def test_pipe_with_closed_read_end(self, argv):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = self.run(w, argv)
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (2, "fcoherence: cannot write standard output: Broken pipe\n")

    def test_in_process_write_error_is_input_error(self, capsys, monkeypatch):
        class Full:
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", Full())
        assert main(["demo", "max-coherent"]) == 2
        assert capsys.readouterr().err == "fcoherence: cannot write standard output: No space left on device\n"


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fcoherence", "demo", "max-coherent"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert '"pass": true' in proc.stdout
