package repro.util

import scala.reflect.ClassTag

/** Data parallelism over an index range, for the embedding and distance
  * work of a query (DESIGN.md §6, "Across cores").
  */
object Par {

  /** `Array(f(0), ..., f(n-1))`: each `f(i)` is computed once, on the
    * ForkJoinPool of the calling task (the common pool outside one), and
    * stored in slot `i`. Results depend only on `f`, never on the pool or
    * the schedule, so `f` must be safe to call concurrently and must not
    * depend on the order in which indices run.
    */
  def tabulate[A: ClassTag](n: Int)(f: Int => A): Array[A] = {
    val out = new Array[A](n)
    foreach(n)(i => out(i) = f(i))
    out
  }

  /** [[tabulate]] for an `f` that stores its own result: the same conditions hold. */
  def foreach(n: Int)(f: Int => Unit): Unit =
    java.util.stream.IntStream.range(0, n).parallel().forEach(i => f(i))
}
