"""The benchmark's workloads and its closed measuring loop.

Every op gets a fresh synthetic scene drawn from the workload seed, so no
input repeats. The program is called through module attributes
(``models.infer``, ``weights_io.load_weights``, ...) so that a Tracer
installed on those names sees the calls.
"""
from __future__ import annotations

import io
import shutil
import sys
import tempfile
import time
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fcnndepth import cli, fileio, metrics, models, synthetic, weights_io
from fcnndepth.tensor import BatchNormParams, ConvKernel, Tensor4

WIDTH, HEIGHT = 320, 240

# An oracle check passes when max |output - reference| stays within this
# share of max |reference|. Over 40 seeds at 320x240 the worst cases were
# 1.5e-6 for naive vs fast and 1.5e-5 for float32 vs float64 (the deep
# nonbt presets, which have no batch norm); mis-wired parity branches are
# off by order 1.
ORACLE_REL_TOL = 1e-4

# The op checked against its oracle is drawn per preset from the first
# KEEP_WINDOW ops; a run with fewer ops checks its last op instead.
KEEP_WINDOW = 8

# Percentiles above the median that a run may report, in tenths of a
# percent, highest first. One is reported only when at least
# MIN_SAMPLES_BEYOND samples lie beyond it.
TAIL_PERMILLE = (999, 990, 950, 900)
MIN_SAMPLES_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest reportable percentile for n samples, or None below 100 samples."""
    for q in TAIL_PERMILLE:
        if n * (1000 - q) >= MIN_SAMPLES_BEYOND * 1000:
            return q / 10
    return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class Scene:
    rgb: np.ndarray  # (h, w, 3) uint8
    depth: np.ndarray  # (h, w) float32 ground truth
    path: Path | None = None  # the scene written as a P6 file, for the CLI path


def _f64(container):
    """The same weights in float64, for the float64 reference run."""
    entries = {}
    for name, e in container.entries.items():
        if isinstance(e, ConvKernel):
            bias = None if e.bias is None else e.bias.astype(np.float64)
            entries[name] = ConvKernel(e.weights.astype(np.float64), bias)
        else:
            entries[name] = BatchNormParams(
                *(a.astype(np.float64) for a in (e.mean, e.variance, e.gamma, e.beta)), e.eps
            )
    return type(container)(entries)


def reference_output(name: str, naive_weights, rgb: np.ndarray, width_div: int) -> np.ndarray:
    """An independent computation of preset `name` on one image.

    `naive_weights` are the weights before any split_container. A -fast
    preset is checked against its naive preset on those weights, a naive
    up-conv preset against its -fast twin on the split weights, and every
    other preset against a float64 run of the same graph.
    """
    h, w = rgb.shape[:2]
    x = fileio.image_to_tensor(rgb)
    if name.endswith("-fast"):
        ref, weights = name.removesuffix("-fast"), naive_weights
    elif f"{name}-fast" in models.PRESETS:
        ref, weights = f"{name}-fast", weights_io.split_container(naive_weights)
    else:
        ref, weights, x = name, _f64(naive_weights), x.astype(np.float64)
    graph = models.build_model(models.preset(ref, input_h=h, input_w=w, width_div=width_div))
    return models.infer(graph, weights, x).data


def output_error(out, shape: tuple) -> str | None:
    """Shape and finiteness check every op output gets."""
    if out.shape != shape:
        return f"shape {out.shape}, expected {shape}"
    if not np.isfinite(out).all():
        return "non-finite values in output"
    return None


class Workload:
    """What every workload shares: resolution, width and the per-op scene."""

    presets: tuple[str, ...]
    out_shape: tuple[int, ...]

    def __init__(self, width: int, height: int, width_div: int):
        self.width, self.height, self.width_div = width, height, width_div

    def _spec(self, name: str):
        return models.preset(name, input_h=self.height, input_w=self.width,
                             width_div=self.width_div)

    def make_input(self, rng: np.random.Generator, workdir: Path) -> Scene:
        kind = synthetic.SCENE_KINDS[int(rng.integers(len(synthetic.SCENE_KINDS)))]
        return Scene(*synthetic.generate_scene(kind, self.width, self.height, rng))


class LiteWorkload(Workload):
    """One up-conv preset, one in-memory inference per op."""

    def __init__(self, preset: str, width=WIDTH, height=HEIGHT, width_div=1):
        super().__init__(width, height, width_div)
        self.presets = (preset,)
        self.naive_preset = preset.removesuffix("-fast")
        self.out_shape = (1, height, width, 1)
        self.graph = self.weights = self.naive_weights = None

    def setup(self, workdir: Path, weight_seed: int) -> None:
        """Build, draw weights, round-trip them through an FCNW file, split for -fast."""
        preset = self.presets[0]
        graph = models.build_model(self._spec(self.naive_preset))
        path = workdir / "weights.fcnw"
        weights_io.save_weights(models.random_weights(graph, weight_seed), path)
        self.naive_weights = weights_io.load_weights(path)
        path.unlink()
        if preset == self.naive_preset:
            self.graph, self.weights = graph, self.naive_weights
        else:
            self.graph = models.build_model(self._spec(preset))
            self.weights = weights_io.split_container(self.naive_weights)

    def run(self, scene: Scene) -> dict[str, np.ndarray]:
        out = models.infer(self.graph, self.weights, fileio.image_to_tensor(scene.rgb))
        return {self.presets[0]: out.data}

    def naive_weights_for(self, name: str):
        return self.naive_weights


class CliSweepWorkload(Workload):
    """Every preset at reduced width through `fcnndepth infer` on files.

    One op runs the scene's P6 file through all eight presets with
    cli.main, which loads the FCNW weights and builds the graph on every
    call, then reads each DPTH raster back and scores it against the
    scene's depth with compute_metrics. Before each op, untimed, the
    weights are saved again to a new directory, so no op reads a path an
    earlier op read.
    """

    def __init__(self, width=WIDTH, height=HEIGHT, width_div=8):
        super().__init__(width, height, width_div)
        self.presets = tuple(models.PRESETS)
        self.out_shape = (height, width)
        self.containers: dict[str, object] = {}
        self.paths: dict[str, Path] = {}
        self.op_dir: Path | None = None

    def setup(self, workdir: Path, weight_seed: int) -> None:
        """Build each evaluated preset, draw its weights and split the up-conv ones."""
        for i, name in enumerate(models.EVALUATED_PRESETS):
            graph = models.build_model(self._spec(name))
            self.containers[name] = models.random_weights(graph, weight_seed + i)
            fast = f"{name}-fast"
            if fast in models.PRESETS:
                self.containers[fast] = weights_io.split_container(self.containers[name])

    def make_input(self, rng: np.random.Generator, workdir: Path) -> Scene:
        """The scene as a P6 file, next to every preset's weights, in a new directory."""
        scene = super().make_input(rng, workdir)
        if self.op_dir is not None:
            shutil.rmtree(self.op_dir)
        self.op_dir = Path(tempfile.mkdtemp(prefix="op-", dir=workdir))
        for name, weights in self.containers.items():
            self.paths[name] = self.op_dir / f"{name}.fcnw"
            weights_io.save_weights(weights, self.paths[name])
        scene.path = self.op_dir / "scene.ppm"
        fileio.write_ppm(scene.path, scene.rgb)
        return scene

    def run(self, scene: Scene) -> dict[str, np.ndarray]:
        truth = Tensor4(scene.depth[None, :, :, None])
        outputs = {}
        for name in self.presets:
            out_path = self.op_dir / f"{name}.dpth"
            argv = ["infer", "--model", name, "--weights", str(self.paths[name]),
                    "--input", str(scene.path), "--output", str(out_path),
                    "--width-div", str(self.width_div)]
            with redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{name}: exit code {code}: {err.getvalue().strip()}")
            depth = fileio.read_depth_raster(out_path)
            report = metrics.compute_metrics(Tensor4(depth[None, :, :, None]), truth)
            if not np.isfinite(list(report.as_dict().values())).all():
                raise ValueError(f"{name}: non-finite metrics {report.as_dict()}")
            outputs[name] = depth
        return outputs

    def naive_weights_for(self, name: str):
        return self.containers[name.removesuffix("-fast")]


WORKLOADS = {
    "lite-fast-full": lambda: LiteWorkload("lite-upconv-fast"),
    "cli-sweep-w8": CliSweepWorkload,
}


class HostReference:
    """Times a fixed float32 matmul between ops, as a yardstick of host speed.

    Other tenants of a shared host slow the benchmark by up to 1.5x for
    stretches from seconds to many minutes. The matmul, timed in the same
    process between the ops of the run, slows with them, so the median op
    time over the median matmul time keeps the cost of the code and loses
    most of the host's. It never calls the package.
    """

    N = 512
    REPS = 4  # matmuls after each op

    def __init__(self):
        self.a = np.full((self.N, self.N), 0.5, dtype=np.float32)
        self.seconds: list[float] = []

    def sample(self) -> None:
        for _ in range(self.REPS):
            t0 = time.perf_counter()
            self.a @ self.a
            self.seconds.append(time.perf_counter() - t0)


@dataclass
class Measurement:
    """Ops of one run: per-op wall times, failures and the outputs kept for oracles."""

    workload: Workload
    workdir: Path
    scene_rng: np.random.Generator
    picks: dict[str, int]  # preset -> op index checked against its oracle
    latencies: list[float] = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)
    kept: dict[int, tuple[Scene, dict]] = field(default_factory=dict)
    last: tuple[int, Scene, dict] | None = None  # the last op that passed its checks
    reference: HostReference | None = None  # sampled after every timed op when set

    def warm_up(self) -> None:
        """One untimed op on a scene no timed op reuses; its failures show in timed ops."""
        scene = self.workload.make_input(self.scene_rng, self.workdir)
        try:
            self.workload.run(scene)
        except Exception as exc:  # noqa: BLE001 - the timed ops count the same failure
            print(f"warm-up op failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    def measure(self, seconds: float, tracer=None) -> list[float]:
        """Closed loop of one client for `seconds`; returns this phase's op times."""
        phase = []
        deadline = time.perf_counter() + seconds
        while not phase or time.perf_counter() < deadline:
            i = len(self.latencies)
            scene = self.workload.make_input(self.scene_rng, self.workdir)
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                outputs, error = self.workload.run(scene), None
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                outputs, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            self.latencies.append(elapsed)
            phase.append(elapsed)
            if self.reference is not None:
                self.reference.sample()
            for out in (outputs or {}).values():
                error = error or output_error(out, self.workload.out_shape)
            if error:
                self.failures[i] = error
                continue
            if i in self.picks.values():
                self.kept[i] = (scene, outputs)
            self.last = (i, scene, outputs)
        return phase

    def check_oracles(self) -> list[dict]:
        """Compare one seed-chosen op per preset with its independent reference."""
        checks = []
        if self.last is None:
            return checks
        for name, pick in self.picks.items():
            i, scene, outputs = (pick, *self.kept[pick]) if pick in self.kept else self.last
            try:
                ref = reference_output(name, self.workload.naive_weights_for(name), scene.rgb,
                                       self.workload.width_div)
            except Exception as exc:  # noqa: BLE001 - no reference means no pass
                self.failures.setdefault(i, f"{name}: oracle raised {type(exc).__name__}: {exc}")
                checks.append({"preset": name, "op": i, "ok": False})
                continue
            out = outputs[name]
            diff = float(np.max(np.abs(out.astype(np.float64).ravel() - ref.ravel())))
            scale = float(np.max(np.abs(ref)))
            rel = diff / scale if scale > 0 else diff
            checks.append({"preset": name, "op": i, "max_abs_diff": diff, "scale": scale,
                           "rel": rel, "ok": rel <= ORACLE_REL_TOL})
            if rel > ORACLE_REL_TOL:
                self.failures.setdefault(
                    i, f"{name}: oracle max |diff| {diff:.3g} at scale {scale:.3g} "
                       f"(relative {rel:.3g} > {ORACLE_REL_TOL:g})"
                )
        return checks

