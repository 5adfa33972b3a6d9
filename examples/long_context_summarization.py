"""Long-context summarization: one arXiv request under the microscope.

The paper's motivating workload: a ~6K-token scientific article
summarized by Llama-3.1 70B in a disaggregated deployment.  This
example follows a *single request* through each system — how large its
KV is on the wire, how long prefill/transfer/decode take, what every
decode iteration pays — and then zooms out to a whole arXiv trace.

Run:  python examples/long_context_summarization.py
"""

from repro.analysis import Table
from repro.cluster import replica_resources
from repro.methods import PAPER_COMPARISON, get_method
from repro.model import get_model
from repro.perfmodel import (
    BatchCostModel,
    kv_wire_bytes,
    prefill_time,
    transfer_time,
)
from repro.sim import default_cluster, experiment_rps, simulate
from repro.workload import generate_trace

MODEL = get_model("L")
PROMPT_LEN = 6300    # arXiv mean input (Table 4)
OUTPUT_LEN = 243     # arXiv mean output


def one_request_story():
    pre = replica_resources(MODEL, "A10G")
    dec = replica_resources(MODEL, "A100")
    print(f"One arXiv request: {PROMPT_LEN:,}-token article, "
          f"{OUTPUT_LEN}-token summary, Llama-70B\n")

    table = Table("Single-request anatomy (no queueing)",
                  ["method", "KV on wire (GB)", "prefill (s)",
                   "transfer (s)", "decode (s)", "total (s)"])
    for name in PAPER_COMPARISON:
        method = get_method(name)
        wire_gb = kv_wire_bytes(MODEL, method, PROMPT_LEN) / 1e9
        pb = prefill_time(MODEL, pre, PROMPT_LEN, method)
        comm = transfer_time(MODEL, method, PROMPT_LEN, pre, dec)
        # Decode alone on the replica (batch of one).
        iteration = BatchCostModel(MODEL, dec, method).iteration(
            [PROMPT_LEN + OUTPUT_LEN // 2])
        decode_s = OUTPUT_LEN * iteration.latency_s
        total = pb.total_s + comm + decode_s
        table.add_row(name, wire_gb, pb.total_s, comm, decode_s, total)
    print(table.render())


def full_trace():
    rps = experiment_rps(MODEL, "A10G", "arxiv", load_factor=1.05)
    trace = generate_trace("arxiv", rps, 80, seed=3)
    print(f"\nWhole-trace view: 80 arXiv requests at {rps:.2f} rps\n")
    table = Table("arXiv trace (Llama-70B, A10G prefill)",
                  ["method", "avg JCT (s)", "comm (s)", "dequant/approx (s)",
                   "peak mem %"])
    for name in PAPER_COMPARISON:
        config = default_cluster(MODEL, get_method(name), "A10G")
        result = simulate(config, trace)
        decomp = result.mean_decomposition()
        table.add_row(name, result.avg_jct(), decomp["comm"],
                      decomp["dequant_or_approx"],
                      100 * result.peak_memory_fraction)
    print(table.render())


if __name__ == "__main__":
    one_request_story()
    full_trace()
