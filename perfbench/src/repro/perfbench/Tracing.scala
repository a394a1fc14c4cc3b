package repro.perfbench

import scala.collection.mutable

import repro.core._

/** One recorded span; spans of one sampled edge of one query share `trace`
  * (query index × stream length + edge position).
  */
final case class Span(id: Int, parent: Int, trace: Int, name: String, start: Long, end: Long)

/** Counts and times of the traced run, kept in memory. Every layer is timed
  * from outside the engine: around `insertPlan`, `insert` and `delete`, and
  * around each item access the engine announces to its [[Guard]].
  */
final class Recorder(maxSpans: Int) {

  var edges, routeNs, routeHits, planSteps  = 0L
  var insertNs, insertGuardNs               = 0L
  var deleteNs, deletes                     = 0L
  var chainReadNs, chainRows, chainWriteNs, chainCreated = 0L
  var l0ReadNs, l0Rows, l0WriteNs, l0Created             = 0L
  var expChainNs, expL0Ns, removed          = 0L
  var joinOps, matches, itemsChecked        = 0L

  /** Per item of the current engine: nodes created minus nodes removed. */
  val net = mutable.HashMap[ItemKey, Long]()

  val spans = mutable.ArrayBuffer[Span]()
  private var nextId  = 0
  private var trace   = -1
  private var parents = List.empty[Int]

  /** Whether the current edge is sampled for spans. */
  def sampling: Boolean = trace >= 0

  def beginEdge(sample: Boolean, edgeNo: Int): Unit =
    trace = if (sample && spans.size < maxSpans) edgeNo else -1

  def endEdge(): Unit = { trace = -1; parents = Nil }

  /** Time `f` as a child span of the innermost open span (if sampling). */
  def span[A](name: => String)(f: => A): A =
    if (!sampling) f
    else {
      val id = nextId; nextId += 1
      val parent = parents.headOption.getOrElse(-1)
      parents = id :: parents
      val t0 = System.nanoTime()
      try f
      finally {
        spans += Span(id, parent, trace, name, t0, System.nanoTime())
        parents = parents.tail
      }
    }

  def access(key: ItemKey, mode: LockMode, inserting: Boolean, ns: Long, rows: Long): Unit = {
    val l0 = key.list == 0
    if (inserting) {
      insertGuardNs += ns
      mode match {
        case LockMode.S =>
          if (l0) { l0ReadNs += ns; l0Rows += rows } else { chainReadNs += ns; chainRows += rows }
        case LockMode.X =>
          if (l0) { l0WriteNs += ns; l0Created += rows } else { chainWriteNs += ns; chainCreated += rows }
          net(key) = net.getOrElse(key, 0L) + rows
      }
    } else {
      if (l0) expL0Ns += ns else expChainNs += ns
      removed += rows
      net(key) = net.getOrElse(key, 0L) - rows
    }
  }
}

/** A [[Guard]] that times every item access and reads its outcome: the rows
  * an `S` read returns, the nodes an `X` write creates during insert, and
  * the nodes an `X` level pass removes during delete.
  */
final class RecordingGuard(rec: Recorder) extends Guard {

  var inserting = true

  override def exec[A](key: ItemKey, mode: LockMode)(f: => A): A = {
    val name = if (rec.sampling) s"item L${key.list}.${key.level} $mode" else null
    rec.span(name) {
      val t0 = System.nanoTime()
      val r  = f
      val ns = System.nanoTime() - t0
      val rows = r match {
        case v: Vector[_] => v.size.toLong
        case n: Int       => n.toLong
        case _            => 0L
      }
      rec.access(key, mode, inserting, ns, rows)
      r
    }
  }

  override def skip(n: Int): Unit = ()
}

/** [[EngineApi]] wrapper of the traced run: times `insertPlan` (routing) as
  * a separate call before each insert, and runs `insert`/`delete` under a
  * [[RecordingGuard]].
  */
final class TracedEngine(val engine: TimingEngine, rec: Recorder) extends EngineApi {

  private val guard = new RecordingGuard(rec)

  override def insert(sigma: StreamEdge): Vector[Matching.Match] = {
    val t0   = System.nanoTime()
    val plan = rec.span("route")(engine.insertPlan(sigma))
    val t1   = System.nanoTime()
    rec.routeNs += t1 - t0
    rec.planSteps += plan.size
    if (plan.nonEmpty) rec.routeHits += 1
    guard.inserting = true
    val out = rec.span("insert")(engine.insert(sigma, guard))
    rec.insertNs += System.nanoTime() - t1
    rec.edges += 1
    out
  }

  override def delete(sigma: StreamEdge): Unit = {
    val t0 = System.nanoTime()
    guard.inserting = false
    rec.span("delete")(engine.delete(sigma, guard))
    rec.deleteNs += System.nanoTime() - t0
    rec.deletes += 1
  }

  override def results: Vector[Matching.Match] = engine.results
  override def spaceCells: Long                = engine.spaceCells
}
