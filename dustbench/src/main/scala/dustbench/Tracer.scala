package dustbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder. A span is one call into a layer made from the
  * benchmark's own code; every span of a query carries that query's id.
  * Spans are written as JSON lines only when the run ends.
  */
final class Tracer {
  import Tracer.Span

  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var query = -1
  private val origin = System.nanoTime()

  def forQuery[A](q: Int)(body: => A): A = {
    query = q
    try body finally query = -1
  }

  def span[A](name: String)(body: => A): A = {
    val id = spans.size
    val parent = open.headOption.getOrElse(-1)
    val start = System.nanoTime()
    spans += Span(id, parent, query, name, start, start)
    open = id :: open
    try body
    finally {
      spans(id) = spans(id).copy(end = System.nanoTime())
      open = open.tail
    }
  }

  def all: Vector[Span] = spans.toVector

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try spans.foreach { s =>
      out.println(s"""{"query":${s.query},"span":${s.id},"parent":${s.parent},""" +
        s""""name":"${s.name}","start_ns":${s.start - origin},"end_ns":${s.end - origin}}""")
    } finally out.close()
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, query: Int, name: String, start: Long, end: Long) {
    def ns: Long = end - start
  }

  /** Per query, per span name: summed duration and summed self time (the
    * duration minus what its child spans cover), in nanoseconds.
    */
  def perQuery(spans: Seq[Span]): Map[Int, Map[String, (Long, Long)]] = {
    val childNs = spans.groupBy(_.parent).view.mapValues(_.map(_.ns).sum).toMap
    spans.groupBy(_.query).view.mapValues { qs =>
      qs.groupBy(_.name).view.mapValues { ss =>
        (ss.map(_.ns).sum, ss.map(s => s.ns - childNs.getOrElse(s.id, 0L)).sum)
      }.toMap
    }.toMap
  }
}
