"""Quickstart: predict fine-grained RTL timing for your own Verilog.

Trains RTL-Timer **once** on a handful of generated benchmark designs,
saves the fitted model as a single-file bundle, and from then on loads it
back (bit-identical predictions, no re-training) to predict per-signal
slack, criticality ranking and overall WNS/TNS for a small user-provided
Verilog module — all before any synthesis of that module is run.

Run with:  python examples/quickstart.py
"""

from pathlib import Path

from repro.core import (
    BitwiseConfig,
    OverallConfig,
    RTLTimer,
    RTLTimerConfig,
    SignalwiseConfig,
    build_dataset,
    build_design_record,
)
from repro.hdl.generate import BENCHMARK_SPECS
from repro.serve.registry import RegistryError

#: Where the fitted model bundle lands (delete it to force a re-train).
BUNDLE_PATH = Path(__file__).parent / "output" / "quickstart_model.bundle"

USER_VERILOG = """
module accumulator (clk, start, in_a, in_b, mode, out_sum, out_flag);
  input clk;
  input start;
  input [15:0] in_a;
  input [15:0] in_b;
  input [1:0] mode;
  output [15:0] out_sum;
  output out_flag;

  reg [15:0] acc;
  reg [15:0] stage;
  reg flag;
  wire [15:0] mixed;
  wire [15:0] next_acc;

  assign mixed = (mode == 2'd0) ? (in_a + in_b)
               : (mode == 2'd1) ? (in_a ^ in_b)
               : (in_a & in_b);
  assign next_acc = acc + mixed;
  assign out_sum = acc;
  assign out_flag = flag;

  always @(posedge clk) begin
    stage <= mixed;
    if (start) acc <= next_acc;
    flag <= ^stage;
  end
endmodule
"""


def train_and_save() -> RTLTimer:
    print("Building training dataset (8 generated benchmark designs)...")
    train_records = build_dataset(BENCHMARK_SPECS[:8])

    print("Training RTL-Timer (4 BOG representations, max-arrival loss, ensemble)...")
    config = RTLTimerConfig(
        bitwise=BitwiseConfig(n_estimators=40, max_depth=5, max_train_endpoints_per_design=120),
        signalwise=SignalwiseConfig(n_estimators=40, ranker_estimators=60),
        overall=OverallConfig(n_estimators=30),
    )
    timer = RTLTimer(config).fit(train_records)

    bundle_id = timer.save(BUNDLE_PATH)
    print(f"Saved the fitted model to {BUNDLE_PATH} (bundle {bundle_id[:12]}).")
    return timer


def main() -> None:
    timer = None
    if BUNDLE_PATH.exists():
        try:
            timer = RTLTimer.load(BUNDLE_PATH)
        except RegistryError as exc:
            # E.g. a bundle saved by an older release under a previous bundle
            # schema: say why, then re-train and overwrite it.
            print(f"Cannot load {BUNDLE_PATH}: {exc}")
        else:
            # Reloaded models predict bit-identically to the fitted original —
            # the whole point of the save/load boundary is never training twice.
            print(f"Loaded the fitted model from {BUNDLE_PATH} (no re-training).")
    if timer is None:
        timer = train_and_save()

    print("Evaluating the user design (no synthesis of the user RTL is needed)...")
    record = build_design_record(USER_VERILOG, name="accumulator")
    prediction = timer.predict(record)

    print(f"\nPredicted overall timing for '{prediction.design}':")
    print(f"  WNS = {prediction.overall['wns']:.1f} ps   TNS = {prediction.overall['tns']:.1f} ps")

    print("\nPer-signal predicted slack (most critical first):")
    for signal in prediction.ranked_signals():
        slack = prediction.signal_slack[signal]
        group = prediction.rank_group[signal]
        print(f"  {signal:10s}  slack {slack:8.1f} ps   rank group g{group}")

    # For reference only: compare with the ground-truth labels the dataset
    # generation produced by actually synthesizing the design.
    print("\nGround-truth signal slack (from the synthesis label flow):")
    for signal, slack in sorted(record.signal_slack_labels().items(), key=lambda kv: kv[1]):
        print(f"  {signal:10s}  slack {slack:8.1f} ps")


if __name__ == "__main__":
    main()
