"""Memory properties of a run: no transient copy of the points, the digests or the init."""

import hashlib
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np

import lngd
from lngd.data import StreamedTestSet, generate_dataset
from lngd.decomposition import CoefficientStack
from lngd.experiments import axis_aligned_spec, run_dynamics
from lngd.io import sha256_file
from lngd.training import LabelNoiseSpec

MIB = 1 << 20


def test_noise_chunks_share_one_buffer(monkeypatch):
    monkeypatch.setattr(StreamedTestSet, "CHUNK_VALUES", 60)  # 3 rows of d = 20
    spec = axis_aligned_spec(1.5, 0.5, 20)
    chunks = StreamedTestSet(spec, 10, np.random.default_rng(8)).noise_chunks()
    first = next(chunks)
    rest = list(chunks)
    assert [len(x) for x in [first, *rest]] == [3, 3, 3, 1]
    assert all(np.shares_memory(x, first) for x in rest)


def test_sha256_file_reads_in_blocks(tmp_path, monkeypatch):
    data = np.random.default_rng(0).bytes(3 * MIB + 123)  # a partial last block
    path = tmp_path / "blob"
    path.write_bytes(data)

    def refuse(self):
        raise AssertionError("read_bytes loads the whole file")

    monkeypatch.setattr(pathlib.Path, "read_bytes", refuse)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_init_weights_are_not_copied(small_spec, small_dataset):
    w0 = np.random.default_rng(4).standard_normal((small_spec.d, 6))
    stack = CoefficientStack(small_dataset, w0, 2)
    assert all(state.w0 is w0 for state in stack.states)
    # A paired run hands every arm the one init, read-only so no arm can move it.
    result = run_dynamics(small_spec, n=8, m=3, q=2, sigma_0=0.1, eta=0.1, steps=2,
                          noise=LabelNoiseSpec.flip(0.2), seed=5, log_stride=1, n_test=20)
    w0 = result.standard.state.w0
    assert result.label_noise.state.w0 is w0
    assert not w0.flags.writeable


def test_cli_import_leaves_multiprocessing_out():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(lngd.__file__).parents[1])}
    code = "import sys, lngd.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_traced_peak_of_a_section5_run_stays_near_its_arrays():
    # The section-5 shape for 10 steps. The run keeps the points, the (train,
    # test) products and w0, and holds one test chunk while it draws the test
    # set; everything else it allocates at once must fit in 1.5 MiB.
    d, n, m, n_test = 2000, 200, 20, 2000
    chunk_rows = min(StreamedTestSet.CHUNK_VALUES // d, n_test)
    named = 8 * ((n + 1) * d  # points: xi_1..xi_n, mu
                 + (n + 1 + n_test) * (2 * m + n + 1)  # train and test SpanProducts
                 + d * 2 * m  # w0
                 + chunk_rows * d)  # one test chunk
    spec = axis_aligned_spec(2.0, 0.5, d)
    generate_dataset(spec, 2, np.random.default_rng(0))  # warm lazy imports and caches
    tracemalloc.start()
    try:
        run_dynamics(spec, n=n, m=m, q=2, sigma_0=0.01, eta=0.5, steps=10,
                     noise=LabelNoiseSpec.flip(0.1), seed=1, log_stride=10, n_test=n_test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= named + 1.5 * MIB, f"peak {peak / MIB:.2f} MiB, arrays {named / MIB:.2f} MiB"
