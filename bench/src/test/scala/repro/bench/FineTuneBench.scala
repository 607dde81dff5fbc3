package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.DustModelSpec
import repro.exp.Models

/** Kernel harness for fine-tuning: DUST (RoBERTa)'s training run
  * (`finetuneOnPairs` with its config, featurizing included), timed by
  * [[KernelTiming.time]]. Every run must give the pinned model.
  */
class FineTuneBench extends AnyFunSuite {

  test("fine-tune kernel: DUST (RoBERTa), 1 warm-up and 5 timed runs") {
    println("\n=== Fine-tune kernel: DUST (RoBERTa) ===")
    val pin = KernelTiming.time("finetune_dust_roberta", "finetune_s", "s")(Models.fitDustRoberta())(DustModelSpec.pin)
    assert(pin == DustModelSpec.DustRobertaPin)
  }
}
