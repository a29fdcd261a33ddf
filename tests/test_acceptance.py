"""Acceptance suite: ten gating criteria, one test and one printed line each.

Every test prints exactly one ``[PASS]``/``[FAIL]`` line (visible in the
pytest summary via the -rA default in pyproject) and asserts the same
condition, with the tolerance pinned next to the check it gates.
"""

import numpy as np

from carafe import reference as ref
from carafe.cli import main as cli_main
from carafe.demo import SlotSpec, ToyTask, compare_operators
from carafe.fileio import load_pgm, load_tensor, save_pgm, save_tensor
from carafe.gradcheck import check_op, registered_ops
from carafe.nn import (affine_norm, affine_params, conv_output_hw,
                       conv_params, conv2d_backward, conv2d_forward,
                       exact_tier, pixel_shuffle, pixel_unshuffle, relu,
                       softmax_group, transposed_conv_forward,
                       transposed_conv_params)
from carafe.reassembly import (CarafeConfig, KernelField, carafe_forward,
                               carafe_params, map_target_to_source,
                               predict_kernels, reassemble,
                               reassemble_backward)
from carafe.tensor import Tensor

# pinned tolerances, one per criterion that needs one
NORMALIZATION_TOL_DOUBLE = 1e-12   # criterion 1
NORMALIZATION_TOL_SINGLE = 1e-6    # criterion 1
REDUCTION_TOL = 1e-12              # criterion 3b
CONSTANT_TOL = 1e-12               # criterion 4
GRADIENT_TOL = 1e-5                # criterion 5
PGM_QUANT_TOL = 1.0 / 510.0        # criterion 10


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label})"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_criterion_1_kernel_normalization():
    rng = np.random.default_rng(101)
    worst = 0.0
    ok = True
    for direction in ("down", "up"):
        for i in range(100):
            dtype = np.float64 if i < 50 else np.float32
            tol = NORMALIZATION_TOL_DOUBLE if i < 50 else NORMALIZATION_TOL_SINGLE
            sigma = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            cfg = CarafeConfig(direction, sigma, k_reassembly=k, c_mid=3)
            h = sigma * int(rng.integers(1, 4)) if direction == "down" \
                else int(rng.integers(1, 5))
            w = sigma * int(rng.integers(1, 4)) if direction == "down" \
                else int(rng.integers(1, 5))
            x = Tensor((rng.standard_normal((1, 2, h, w)) * 3).astype(dtype))
            params = carafe_params(2, cfg, rng, dtype)
            kf = predict_kernels(x, params, cfg)
            sums = kf.tensor.data.sum(axis=1, dtype=np.float64)
            err = float(np.abs(sums - 1.0).max())
            worst = max(worst, err)
            if err > tol or not np.all(kf.tensor.data > 0):
                ok = False
    _verdict(1, "kernel normalization", ok,
             f"max |group sum - 1| = {worst:.2e} over 100 inputs/direction")


def test_criterion_2_shape_contracts():
    ok = True
    bad = ""
    rng = np.random.default_rng(102)
    for direction in ("down", "up"):
        for sigma in (1, 2, 3, 4):
            cfg = CarafeConfig(direction, sigma, k_encoder=3, k_reassembly=3,
                               c_mid=2)
            params = carafe_params(2, cfg, rng)
            for h in range(1, 10):
                for w in range(1, 10):
                    x = Tensor(rng.standard_normal((1, 2, h, w)))
                    y, _ = carafe_forward(x, params, cfg)
                    if direction == "down":
                        expect = (-(-h // sigma), -(-w // sigma))
                    else:
                        expect = (sigma * h, sigma * w)
                    if y.shape[2:] != expect:
                        ok = False
                        bad = f"{direction} sigma={sigma} ({h},{w}) -> {y.shape[2:]}"
    _verdict(2, "shape contracts", ok,
             bad or "648 (direction, sigma, H, W) combinations")


def test_criterion_3_reductions():
    rng = np.random.default_rng(103)
    ok = True
    notes = []

    # (a) k_reassembly = 1: exact nearest / decimation
    for direction, expect in (
        ("up", lambda d: d.repeat(2, axis=2).repeat(2, axis=3)),
        ("down", lambda d: d[:, :, ::2, ::2]),
    ):
        cfg = CarafeConfig(direction, 2, k_reassembly=1, c_mid=3)
        x = Tensor(rng.standard_normal((1, 3, 6, 6)))
        y, _ = carafe_forward(x, carafe_params(3, cfg, rng), cfg)
        if not np.array_equal(y.data, expect(x.data)):
            ok = False
            notes.append(f"k=1 {direction} not exact")

    # (b) zeroed encoder: down == zero-padded k x k stride-sigma box filter
    cfg = CarafeConfig("down", 2, k_reassembly=5, c_mid=3)
    params = carafe_params(2, cfg, rng)
    params.encoder.weights[:] = 0.0
    params.encoder.bias[:] = 0.0
    x = Tensor(rng.standard_normal((1, 2, 8, 8)))
    y, _ = carafe_forward(x, params, cfg)
    k, sig, r = 5, 2, 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (r, r), (r, r)))
    box = np.zeros_like(y.data)
    for oi in range(y.shape[2]):
        for oj in range(y.shape[3]):
            win = xp[:, :, sig * oi:sig * oi + k, sig * oj:sig * oj + k]
            box[:, :, oi, oj] = win.mean(axis=(2, 3))
    err_box = float(np.abs(y.data - box).max())
    if err_box >= REDUCTION_TOL:
        ok = False
        notes.append(f"box filter err {err_box:.2e}")

    # (c) delta kernels: exact nearest / decimation
    for direction, expect in (
        ("up", lambda d: d.repeat(2, axis=2).repeat(2, axis=3)),
        ("down", lambda d: d[:, :, ::2, ::2]),
    ):
        cfg = CarafeConfig(direction, 2, k_reassembly=3)
        x = Tensor(rng.standard_normal((1, 2, 6, 6)))
        h_out, w_out = cfg.output_hw(6, 6)
        data = np.zeros((1, 9, h_out, w_out))
        data[:, 4] = 1.0
        y = reassemble(x, KernelField(Tensor(data), 3, True), cfg)
        if not np.array_equal(y.data, expect(x.data)):
            ok = False
            notes.append(f"delta {direction} not exact")

    _verdict(3, "closed-form reductions", ok,
             "; ".join(notes) or f"k=1 exact, box err {err_box:.1e}, delta exact")


def test_criterion_4_constant_preservation():
    rng = np.random.default_rng(104)
    ok = True
    worst = 0.0
    for direction in ("down", "up"):
        cfg = CarafeConfig(direction, 2, k_reassembly=5)
        params = carafe_params(3, cfg, rng)
        x = Tensor(np.full((1, 3, 10, 10), 0.731))
        y, _ = carafe_forward(x, params, cfg)
        r = cfg.k_reassembly // 2
        h_out, w_out = y.shape[2:]
        for oi in range(h_out):
            for oj in range(w_out):
                si, sj = map_target_to_source((oi, oj), cfg)
                if si - r < 0 or si + r >= 10 or sj - r < 0 or sj + r >= 10:
                    continue  # window leaves the source map: padding mixes in
                err = float(np.abs(y.data[:, :, oi, oj] - 0.731).max())
                worst = max(worst, err)
                if err >= CONSTANT_TOL:
                    ok = False
    _verdict(4, "constant preservation", ok,
             f"max interior deviation {worst:.2e}")


def test_criterion_5_gradient_exactness():
    ok = True
    worst_name, worst_err = "", 0.0
    for name in sorted(registered_ops()):
        report = check_op(name, seed=0, tol=GRADIENT_TOL)
        if report.max_rel_error > worst_err:
            worst_name, worst_err = name, report.max_rel_error
        if not report.passed:
            ok = False
    _verdict(5, "gradient exactness", ok,
             f"worst {worst_name} rel err {worst_err:.2e} over "
             f"{len(registered_ops())} registered ops (tol {GRADIENT_TOL})")


# The loop twins pin the exact tier's orders; the fast tier has its own gate.
@exact_tier()
def test_criterion_6_implementation_equivalence():
    rng = np.random.default_rng(106)
    mismatches = []

    def same(a, b, label):
        da = a.data if isinstance(a, Tensor) else a
        db = b.data if isinstance(b, Tensor) else b
        if not (da.shape == db.shape and np.array_equal(da, db)):
            mismatches.append(label)

    for case in range(50):
        n = int(rng.integers(1, 3))
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3]))
        stride = int(rng.integers(1, 3))
        pad = k // 2
        h = int(rng.integers(k, k + 4))
        w = int(rng.integers(k, k + 4))
        x = Tensor(rng.standard_normal((n, c_in, h, w)))
        p = conv_params(c_out, c_in, k, rng)
        direct = ref.conv2d_forward_direct(x, p, stride, pad)
        same(conv2d_forward(x, p, stride, pad), direct, f"conv fwd {case}")
        h_out, w_out = conv_output_hw(h, w, k, stride, pad)
        gy = Tensor(rng.standard_normal((n, c_out, h_out, w_out)))
        gx = conv2d_backward(gy, x, p, stride, pad)
        gx_d, gw_d, gb_d = ref.conv2d_backward_direct(gy, x, p, stride, pad)
        same(gx, gx_d, f"conv bwd gx {case}")
        same(p.grad_weights, gw_d, f"conv bwd gw {case}")
        same(p.grad_bias, gb_d, f"conv bwd gb {case}")

        tp = transposed_conv_params(c_in, c_out, k, rng)
        same(transposed_conv_forward(x, tp, stride, 0),
             ref.transposed_conv_forward_direct(x, tp, stride, 0),
             f"tconv {case}")

        sigma = int(rng.integers(1, 3))
        xs = Tensor(rng.standard_normal((1, sigma * sigma * 2, 3, 3)))
        same(pixel_shuffle(xs, sigma), ref.pixel_shuffle_direct(xs, sigma),
             f"shuffle {case}")
        xu = Tensor(rng.standard_normal((1, 2, 2 * sigma, 2 * sigma)))
        same(pixel_unshuffle(xu, sigma), ref.pixel_unshuffle_direct(xu, sigma),
             f"unshuffle {case}")

        g = int(rng.integers(1, 5))
        xg = Tensor(rng.standard_normal((1, 2 * g, 3, 3)))
        same(softmax_group(xg, g), ref.softmax_group_direct(xg, g),
             f"softmax {case}")
        ap = affine_params(c_in)
        ap.gamma[:] = rng.standard_normal(c_in)
        ap.beta[:] = rng.standard_normal(c_in)
        same(affine_norm(x, ap), ref.affine_norm_direct(x, ap), f"norm {case}")
        same(relu(x), ref.relu_direct(x), f"relu {case}")

        direction = "down" if case % 2 == 0 else "up"
        sig = int(rng.integers(1, 3))
        kr = int(rng.choice([1, 3]))
        cfg = CarafeConfig(direction, sig, k_reassembly=kr, c_mid=2,
                           compressor_norm=bool(rng.integers(0, 2)))
        hh = sig * int(rng.integers(1, 4)) if direction == "down" \
            else int(rng.integers(2, 5))
        ww = sig * int(rng.integers(1, 4)) if direction == "down" \
            else int(rng.integers(2, 5))
        xc = Tensor(rng.standard_normal((1, 2, hh, ww)))
        cp = carafe_params(2, cfg, rng)
        kf = predict_kernels(xc, cp, cfg)
        same(kf.tensor, ref.predict_kernels_direct(xc, cp, cfg).tensor,
             f"predict {case}")
        same(reassemble(xc, kf, cfg), ref.reassemble_direct(xc, kf, cfg),
             f"reassemble {case}")
        ho, wo = cfg.output_hw(hh, ww)
        gyc = Tensor(rng.standard_normal((1, 2, ho, wo)))
        gxc, gkc = reassemble_backward(gyc, xc, kf, cfg)
        gxd, gkd = ref.reassemble_backward_direct(gyc, xc, kf, cfg)
        same(gxc, gxd, f"reassemble bwd gx {case}")
        same(gkc, gkd, f"reassemble bwd gk {case}")
        yc, _ = carafe_forward(xc, cp, cfg)
        same(yc, ref.carafe_forward_direct(xc, cp, cfg), f"fused {case}")

    _verdict(6, "implementation equivalence", not mismatches,
             (f"first mismatch {mismatches[0]}" if mismatches
              else "bitwise over 50 random cases per op"))


def test_criterion_7_super_res_trend():
    task = ToyTask("super_res", size=16, sigma=2, seed=7)
    roster = [
        SlotSpec("carafe", k_encoder=3, k_reassembly=3, c_mid=8,
                 compressor_norm=True),
        SlotSpec("nearest_plus_conv"),
    ]
    rows = compare_operators(task, roster, seeds=(0, 1, 2), arch="upsampler",
                             channels=8, epochs=1800, lr=0.15,
                             train_count=16, eval_count=8)
    by_name = {r.operator: r for r in rows}
    carafe_mean = by_name["carafe"].mean
    base_mean = by_name["nearest_plus_conv"].mean
    carafe_seeds = tuple(round(v, 3) for v in by_name["carafe"].per_seed)
    base_seeds = tuple(round(v, 3) for v in
                       by_name["nearest_plus_conv"].per_seed)
    ok = carafe_mean > base_mean
    _verdict(7, "upsampling toy trend", ok,
             f"content-aware mean PSNR {carafe_mean:.4f} vs nearest+conv "
             f"{base_mean:.4f} over seeds (0,1,2); "
             f"per-seed {carafe_seeds} vs {base_seeds}")


def test_criterion_8_seg_trend():
    task = ToyTask("seg2", size=16, sigma=2, seed=7)
    roster = [
        SlotSpec("carafe", k_encoder=3, k_reassembly=3, c_mid=8),
        SlotSpec("strided_conv"),
    ]
    rows = compare_operators(task, roster, seeds=(0, 1, 2), arch="bottleneck",
                             channels=8, epochs=120, lr=0.05,
                             train_count=16, eval_count=8)
    by_name = {r.operator: r for r in rows}
    carafe_mean = by_name["carafe"].mean
    base_mean = by_name["strided_conv"].mean
    carafe_seeds = tuple(round(v, 4) for v in by_name["carafe"].per_seed)
    base_seeds = tuple(round(v, 4) for v in by_name["strided_conv"].per_seed)
    ok = carafe_mean >= base_mean
    _verdict(8, "downsampling toy trend", ok,
             f"content-aware mean IoU {carafe_mean:.4f} vs strided conv "
             f"{base_mean:.4f} over seeds (0,1,2); "
             f"per-seed {carafe_seeds} vs {base_seeds}")


def test_criterion_9_determinism(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cli_main(["gradcheck", "--ops", "relu,softmax_group", "--seed", "5",
                  "--out", str(out)])
        cli_main(["train", "--task", "super_res", "--size", "8", "--epochs",
                  "4", "--channels", "4", "--c-mid", "4", "--seed", "5",
                  "--out", str(out)])
        gc = (out / "gradcheck.json").read_bytes().replace(
            str(out).encode(), b"OUT")
        tr = (out / "report.json").read_bytes().replace(
            str(out).encode(), b"OUT")
        outs.append((gc, tr))
    ok = outs[0] == outs[1]
    _verdict(9, "bitwise-deterministic reports", ok,
             "gradcheck.json and report.json identical across repeat runs")


def test_criterion_10_file_round_trips(tmp_path):
    rng = np.random.default_rng(110)
    ok = True
    notes = []
    for i in range(60):
        dtype = np.float64 if i % 2 == 0 else np.float32
        shape = tuple(int(rng.integers(1, 5)) for _ in range(4))
        t = Tensor((rng.standard_normal(shape) * 10).astype(dtype))
        path = tmp_path / f"t{i}.crft"
        save_tensor(t, path)
        back = load_tensor(path)
        if back.dtype != t.dtype or not np.array_equal(back.data, t.data):
            ok = False
            notes.append(f"tensor {i} ({dtype}) not exact")
    worst_q = 0.0
    for i in range(40):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        t = Tensor(rng.uniform(0.0, 1.0, (1, 1, h, w)))
        path = tmp_path / f"img{i}.pgm"
        save_pgm(t, path)
        back = load_pgm(path)
        err = float(np.abs(back.data - t.data).max())
        worst_q = max(worst_q, err)
        if err > PGM_QUANT_TOL:
            ok = False
            notes.append(f"pgm {i} quantization {err:.2e}")
        save_pgm(back, path)
        again = load_pgm(path)
        if not np.array_equal(again.data, back.data):
            ok = False
            notes.append(f"pgm {i} not idempotent")
    _verdict(10, "file-format round trips", ok,
             "; ".join(notes) or
             f"60 tensor files exact, 40 images max quant err {worst_q:.5f}")
