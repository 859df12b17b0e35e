// Fixture: D4 — the telemetry plane's observe_* family is a sink call:
// the "->observe" prefix matches through the method-name continuation
// (observe_loss_run, observe_governor_exit).  The second function shows
// the gated form.  Line numbers are asserted exactly by test_lint.cpp.

namespace espread::obs::telemetry {
struct TelemetrySlab {
    void observe_loss_run(unsigned long length) noexcept;
};
}  // namespace espread::obs::telemetry

namespace espread::engine {

void emit_ungated(obs::telemetry::TelemetrySlab* tel) {
    tel->observe_loss_run(3);  // line 15: D4 — no gate, slab may be null
}

void emit_gated(obs::telemetry::TelemetrySlab* tel) {
    if (tel != nullptr) tel->observe_loss_run(3);  // gated: clean
}

}  // namespace espread::engine
