package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.DustModelSpec
import repro.exp.Models

/** Kernel harness for fine-tuning: DUST (RoBERTa)'s training run
  * (`finetuneOnPairs` with its config, featurizing included), once to warm
  * up and then 5 timed times. Prints the wall-time median, quartiles and p90
  * (nearest rank), and a record in `BENCH_kernels.json`'s shape without its
  * commit. Every run must give the pinned model.
  */
class FineTuneBench extends AnyFunSuite {

  test("fine-tune kernel: DUST (RoBERTa), 1 warm-up and 5 timed runs") {
    assert(DustModelSpec.pin(Models.fitDustRoberta()) == DustModelSpec.DustRobertaPin)
    val secs = Vector.fill(5) {
      val t0 = System.nanoTime()
      val fit = Models.fitDustRoberta()
      val s = (System.nanoTime() - t0) / 1e9
      assert(DustModelSpec.pin(fit) == DustModelSpec.DustRobertaPin)
      s
    }.sorted
    def rank(q: Double) = secs(math.ceil(q * secs.size).toInt - 1)
    println(f"\n=== Fine-tune kernel: DUST (RoBERTa), ${secs.size} runs ===")
    println(secs.map(s => f"$s%.3f").mkString("runs (s, sorted): ", " ", ""))
    println(f"median ${rank(0.5)}%.3f s, IQR [${rank(0.25)}%.3f, ${rank(0.75)}%.3f], p90 ${rank(0.9)}%.3f s")
    println(f"""record: {"nproc": ${Runtime.getRuntime.availableProcessors}, "pairs": ${secs.size}, """ +
      f""""workload": "finetune_dust_roberta", "metric": "finetune_s", "unit": "s", "median": ${rank(0.5)}%.3f, """ +
      f""""IQR": [${rank(0.25)}%.3f, ${rank(0.75)}%.3f], "p90": ${rank(0.9)}%.3f}""")
  }
}
