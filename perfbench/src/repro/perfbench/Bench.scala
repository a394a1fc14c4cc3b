package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentLinkedQueue
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import repro.concurrent.{ConcurrentEngine, ConcurrentWindowDriver}
import repro.core._

/** Failed operations, counted and named. */
final class Failures {
  val byReason = mutable.LinkedHashMap[String, Long]()
  var count    = 0L
  def add(reason: String, n: Long = 1L): Unit = {
    count += n
    byReason(reason) = byReason.getOrElse(reason, 0L) + n
  }
}

/** Timings of one round: every query of the workload over the whole stream. */
final class Round {
  var elapsedNs, advances, drainNs, drains = 0L
  val latencyParts, pollParts = mutable.ArrayBuffer[Array[Long]]()
  var pollRows = 0L
  /** Bytes the client thread allocated, and GC time, inside the timed loops
    * of serial passes.
    */
  var allocBytes, gcMs = 0L
  /** Time of each advance (ns). */
  lazy val latency: Array[Long] = latencyParts.toArray.flatten
  /** Time of each `results` poll (ns). */
  lazy val polls: Array[Long] = pollParts.toArray.flatten

  def throughput: Double = advances / (elapsedNs / 1e9)
}

/** One run of a workload: set-up, reference, warm-up, then either the
  * measured rounds and the retained-heap pass ([[endToEnd]]) or the
  * per-layer passes ([[perLayer]]).
  */
final class Bench(w: Workload, seed: Long, millis: Long) {

  import Bench._

  val failures      = new Failures
  var attempted     = 0L
  var cappedInserts = 0L
  /** Failed checks that belong to no single operation. */
  val broken = mutable.ArrayBuffer[String]()

  // ---- set-up -------------------------------------------------------------

  private val setupS, inputMs, decomposeMs = mutable.ArrayBuffer[Double]()
  private var inputs: Inputs                 = _
  private var baseStream: Vector[StreamEdge] = _
  private var decomps: Vector[Decomposition] = _

  private def setUpOnce(): Unit = {
    val t0         = System.nanoTime()
    val (in, base) = Workloads.inputs(w, seed)
    val t1         = System.nanoTime()
    val ds         = in.queries.map(Decomposer.decompose)
    val t2         = System.nanoTime()
    in.queries.indices.foreach(i => new TimingEngine(in.queries(i), ds(i), StoreMode.MsTree))
    val t3         = System.nanoTime()
    setupS += (t3 - t0) / 1e9
    inputMs += (t1 - t0) / 1e6
    decomposeMs += (t2 - t1) / 1e6
    inputs = in; baseStream = base; decomps = ds
  }

  (0 until SetupReps).foreach { _ => System.gc(); setUpOnce() }

  private val edges   = inputs.stream.toArray
  private val n       = edges.length
  private val queries = inputs.queries
  private val nPolls  = if (w.pollEvery > 0) n / w.pollEvery else 0

  def digest: String = Workloads.digest(baseStream, queries)
  def edgeCount: Int  = n
  def queryCount: Int = queries.size

  // ---- reference (outside every timed region) ------------------------------

  private val fqs  = queries.map(new FlatQuery(_))
  private val refT = System.nanoTime()
  private val refs = fqs.map(fq => new Reference(fq, inputs.stream, Workloads.Window))
  refs.foreach(_.byLast)
  val referenceS: Double    = (System.nanoTime() - refT) / 1e9
  val referenceMatches: Long = refs.map(_.embeddings.size.toLong).sum

  /** Transactions the concurrent engine dispatches per pass of each query:
    * one per insert or expiry whose lock plan is not empty.
    */
  private val txns: Vector[Long] = queries.indices.map { qi =>
    val e     = new TimingEngine(queries(qi), decomps(qi), StoreMode.MsTree)
    var count = 0L
    var head  = 0
    for (p <- 0 until n) {
      while (edges(head).ts <= edges(p).ts - Workloads.Window) {
        if (e.deletePlan(edges(head)).nonEmpty) count += 1
        head += 1
      }
      if (e.insertPlan(edges(p)).nonEmpty) count += 1
    }
    count
  }.toVector

  private val workerErrors = new ConcurrentLinkedQueue[Throwable]()
  Thread.setDefaultUncaughtExceptionHandler { (th, t) =>
    workerErrors.add(t)
    System.err.println(s"perfbench: uncaught in thread ${th.getName}:")
    t.printStackTrace()
  }

  private def describe(t: Throwable): String = s"${t.getClass.getSimpleName}: ${t.getMessage}"

  // ---- rounds -------------------------------------------------------------

  /** Every query over the whole stream through [[WindowDriver]], one edge
    * after the other, polling `results` every `pollEvery` edges.
    */
  private def serialRound(rec: Recorder): Round = {
    val r = new Round
    for (qi <- queries.indices) {
      val eng = new TimingEngine(queries(qi), decomps(qi), StoreMode.MsTree)
      val api: EngineApi = if (rec == null) eng else new TracedEngine(eng, rec)
      if (rec != null) rec.net.clear()
      val driver  = new WindowDriver(api, Workloads.Window)
      val lat     = new Array[Long](n)
      val out     = new Array[Vector[Matching.Match]](n)
      val errs    = new Array[Throwable](n)
      val pollNs  = new Array[Long](nPolls)
      val pollRes = new Array[Vector[Matching.Match]](nPolls)
      val pollErr = new Array[Throwable](nPolls)
      val pollRows = new Array[Int](nPolls)
      var k       = 0
      val g0      = gcMillis()
      val a0      = threads.getCurrentThreadAllocatedBytes
      val t0      = System.nanoTime()
      var p       = 0
      while (p < n) {
        val e = edges(p)
        if (rec != null) rec.beginEdge(p % SpanEvery == 0, qi * n + p)
        val a = System.nanoTime()
        try out(p) = if (rec == null) driver.advance(e) else rec.span("edge")(driver.advance(e))
        catch { case t: Throwable => errs(p) = t }
        lat(p) = System.nanoTime() - a
        if (rec != null) rec.endEdge()
        if (nPolls > 0 && (p + 1) % w.pollEvery == 0) {
          val c = System.nanoTime()
          try {
            val res = eng.results
            pollRows(k) = res.size
            if (k % PollCheckEvery == 0) pollRes(k) = res
          } catch { case t: Throwable => pollErr(k) = t }
          pollNs(k) = System.nanoTime() - c
          k += 1
        }
        p += 1
      }
      r.elapsedNs += System.nanoTime() - t0
      r.allocBytes += threads.getCurrentThreadAllocatedBytes - a0
      r.gcMs += gcMillis() - g0
      r.advances += n
      r.latencyParts += lat
      r.pollParts += pollNs
      attempted += n + nPolls
      if (rec != null) {
        rec.joinOps += eng.joinOps.sum
        rec.matches += out.iterator.filter(_ != null).map(_.size.toLong).sum
        eng.itemSizes.foreach { case (key, size) =>
          rec.itemsChecked += 1
          val net = rec.net.getOrElse(key, 0L)
          if (net != size) broken += s"item $key: created - removed = $net, itemSizes = $size"
        }
      }
      checkSerial(qi, eng, out, errs, pollRes, pollRows, pollErr, r)
    }
    r
  }

  private def checkSerial(
      qi: Int, eng: TimingEngine, out: Array[Vector[Matching.Match]], errs: Array[Throwable],
      pollRes: Array[Vector[Matching.Match]], pollRows: Array[Int], pollErr: Array[Throwable], r: Round,
  ): Unit = {
    val fq = fqs(qi); val ref = refs(qi)
    for (p <- 0 until n) {
      if (errs(p) != null) failures.add(s"advance threw ${describe(errs(p))}")
      else {
        val got = out(p)
        got.iterator.flatMap(m => Checks.violation(fq, m, edges(p), Workloads.Window)).nextOption() match {
          case Some(why) => failures.add(s"reported match breaks Definition 4: $why")
          case None =>
            val keys = Reference.canon(got.map(Checks.key(fq, _)))
            if (keys != ref.byLast.getOrElse(p, Vector.empty))
              failures.add("matches reported on an edge differ from the reference")
        }
      }
    }
    checkPolls(qi, pollRes, pollRows, pollErr, r)
    checkCapped(eng)
  }

  /** The same operations through [[ConcurrentEngine]]: the client dispatches
    * each edge's expiries and insert, and a poll waits for quiescence
    * before it reads `results`.
    */
  private def concurrentRound(): Round = {
    val r = new Round
    for (qi <- queries.indices) {
      val eng     = new TimingEngine(queries(qi), decomps(qi), StoreMode.MsTree)
      val ce      = new ConcurrentEngine(eng, Workloads.Workers)
      val driver  = new ConcurrentWindowDriver(ce, Workloads.Window)
      val lat     = new Array[Long](n)
      val errs    = new Array[Throwable](n)
      val pollNs  = new Array[Long](nPolls)
      val pollRes = new Array[Vector[Matching.Match]](nPolls)
      val pollErr = new Array[Throwable](nPolls)
      val pollRows = new Array[Int](nPolls)
      var k       = 0
      val t0      = System.nanoTime()
      var p       = 0
      while (p < n) {
        val a = System.nanoTime()
        try driver.advance(edges(p))
        catch { case t: Throwable => errs(p) = t }
        lat(p) = System.nanoTime() - a
        if (nPolls > 0 && (p + 1) % w.pollEvery == 0) {
          val c = System.nanoTime()
          try {
            ce.quiesce()
            r.drainNs += System.nanoTime() - c; r.drains += 1
            val res = eng.results
            pollRows(k) = res.size
            if (k % PollCheckEvery == 0) pollRes(k) = res
          } catch { case t: Throwable => pollErr(k) = t }
          pollNs(k) = System.nanoTime() - c
          k += 1
        }
        p += 1
      }
      val d0 = System.nanoTime()
      ce.quiesce()
      val end = System.nanoTime()
      r.drainNs += end - d0; r.drains += 1
      r.elapsedNs += end - t0
      r.advances += n
      r.latencyParts += lat
      r.pollParts += pollNs
      ce.shutdown()
      attempted += n + nPolls + txns(qi)
      val got = ce.reported.asScala.toVector
      checkConcurrent(qi, eng, got, errs, pollRes, pollRows, pollErr, r)
    }
    r
  }

  private def checkConcurrent(
      qi: Int, eng: TimingEngine, got: Vector[Matching.Match], errs: Array[Throwable],
      pollRes: Array[Vector[Matching.Match]], pollRows: Array[Int], pollErr: Array[Throwable], r: Round,
  ): Unit = {
    for (p <- 0 until n if errs(p) != null) failures.add(s"dispatch threw ${describe(errs(p))}")
    var t = workerErrors.poll()
    while (t != null) { failures.add(s"transaction threw ${describe(t)}"); t = workerErrors.poll() }
    val fq = fqs(qi)
    got.foreach(m => Checks.violation(fq, m, null, Workloads.Window).foreach(why =>
      failures.add(s"reported match breaks Definition 4: $why")))
    val keys     = Reference.canon(got.map(Checks.key(fq, _)))
    val expected = Reference.canon(refs(qi).embeddings.map(_.key))
    if (keys != expected) failures.add("reported matches differ from the reference", multisetDiff(keys, expected))
    checkPolls(qi, pollRes, pollRows, pollErr, r)
    checkCapped(eng)
  }

  private def checkCapped(eng: TimingEngine): Unit = {
    val capped = eng.cappedInserts.sum
    cappedInserts += capped
    if (capped > 0) failures.add("capped insert", capped)
  }

  /** Every `PollCheckEvery`-th poll against the live-window reference. */
  private def checkPolls(
      qi: Int, res: Array[Vector[Matching.Match]], rows: Array[Int], errs: Array[Throwable], r: Round,
  ): Unit =
    for (k <- res.indices) {
      if (errs(k) != null) failures.add(s"results threw ${describe(errs(k))}")
      else {
        r.pollRows += rows(k)
        if (k % PollCheckEvery == 0) {
          val pos  = (k + 1) * w.pollEvery - 1
          val keys = Reference.canon(res(k).map(Checks.key(fqs(qi), _)))
          if (keys != Reference.canon(refs(qi).liveAfter(pos)))
            failures.add("results differ from the live-window reference")
        }
      }
    }

  private def multisetDiff(a: Vector[Vector[Long]], b: Vector[Vector[Long]]): Long = {
    val counts = mutable.HashMap[Vector[Long], Long]()
    a.foreach(x => counts(x) = counts.getOrElse(x, 0L) + 1)
    b.foreach(x => counts(x) = counts.getOrElse(x, 0L) - 1)
    counts.valuesIterator.map(math.abs).sum
  }

  /** Run rounds until their timed regions add up to `budgetNs`. */
  private def rounds(budgetNs: Long, minRounds: Int)(round: => Round): Vector[Round] = {
    val out   = Vector.newBuilder[Round]
    var spent = 0L
    var count = 0
    while (count < minRounds || spent < budgetNs) {
      val r = round
      out += r; spent += r.elapsedNs; count += 1
    }
    out.result()
  }

  /** Untimed rounds until the JIT has settled. */
  private def warmUp(round: => Round): Unit = {
    val t0 = System.nanoTime()
    var count = 0
    while (count < 2 || System.nanoTime() - t0 < WarmUpNs) { round; count += 1 }
  }

  // ---- retained heap --------------------------------------------------------

  /** Heap in use after full collections; the second one frees what the
    * first only made collectable (cleared references, finalizable objects).
    */
  private def usedAfterGc(): Long = {
    System.gc()
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** Heap in use (after a full GC) and live cells at fixed checkpoints of
    * one pass of query `qi`. The engine dies when this returns.
    */
  private def checkpoints(qi: Int): Vector[(Long, Long)] = {
    val eng    = new TimingEngine(queries(qi), decomps(qi), StoreMode.MsTree)
    val every  = n / Checkpoints
    val out    = Vector.newBuilder[(Long, Long)]
    val driver = new WindowDriver(eng, Workloads.Window)
    for (p <- 0 until n) {
      driver.advance(edges(p))
      if ((p + 1) % every == 0) out += ((usedAfterGc(), eng.spaceCells))
    }
    out.result()
  }

  /** Peak bytes retained by an engine, the cells live at that point, and
    * the peak cell count over all checkpoints.
    */
  private def retained(): (Long, Long, Long) = {
    var peak, cellsAtPeak, peakCells = 0L
    usedAfterGc()
    for (qi <- queries.indices) {
      val cps  = checkpoints(qi)
      val base = usedAfterGc()
      for ((used, cells) <- cps) {
        if (used - base > peak) { peak = used - base; cellsAtPeak = cells }
        peakCells = math.max(peakCells, cells)
      }
    }
    (peak, cellsAtPeak, peakCells)
  }

  // ---- the run ------------------------------------------------------------

  private def perRound(rs: Vector[Round])(f: Round => Double): Double = median(rs.map(f))

  /** End-to-end metrics from an untraced run. */
  def endToEnd(): (Vector[(String, Double, String)], String) = {
    val t0 = System.nanoTime()
    warmUp(serialRound(null))
    val t1 = System.nanoTime()
    val rs = rounds(millis * 1000000L, 2)(serialRound(null))
    val t2 = System.nanoTime()
    val (peak, _, _) = retained()
    val t3 = System.nanoTime()
    val metrics = Vector(
      ("throughput_eps", perRound(rs)(_.throughput), "edges/s"),
      ("latency_p50_us", perRound(rs)(r => percentile(r.latency, 0.50) / 1e3), "us"),
      ("latency_p99_us", perRound(rs)(r => percentile(r.latency, 0.99) / 1e3), "us"),
      ("poll_p50_us", perRound(rs)(r => percentile(r.polls, 0.50) / 1e3), "us"),
      ("retained_mb", peak / 1e6, "MB"),
      ("setup_s", median(setupS.toSeq), "s"),
    )
    val info = s"rounds=${rs.size} latency_samples=${rs.map(_.advances).sum} " +
      s"poll_samples=${rs.map(_.polls.length).sum} timed_s=${fmt(rs.map(_.elapsedNs).sum / 1e9)} " +
      s"warm_up_s=${fmt((t1 - t0) / 1e9)} rounds_s=${fmt((t2 - t1) / 1e9)} retained_s=${fmt((t3 - t2) / 1e9)} " +
      s"round_eps=${rs.map(r => fmt(r.throughput)).mkString(",")}"
    (metrics, info)
  }

  /** Per-layer metrics from the traced run, beside untraced passes over the
    * same inputs. Where the workload has a concurrent pass, it comes first,
    * with its own warm-up, so that the JIT compiles the engine for the
    * locking guard before it sees any other; the serial passes follow with
    * theirs. The other workloads report 0 for the figures that only the
    * concurrent pass gives.
    */
  def perLayer(spanFile: java.io.File): (Vector[(String, Double, String)], String) = {
    val budget = millis * 1000000L / (if (w.concurrentPass) 3 else 2)
    val conc = if (w.concurrentPass) {
      warmUp(concurrentRound())
      rounds(budget, 2)(concurrentRound())
    } else Vector.empty
    warmUp(serialRound(null))
    val plain  = rounds(budget, 2)(serialRound(null))
    val rec    = new Recorder(MaxSpans)
    val traced = rounds(budget, 1)(serialRound(rec))
    val (peak, cellsAtPeak, peakCells) = retained()
    writeSpans(rec, spanFile)

    val adv       = plain.map(_.advances).sum.toDouble
    val e         = rec.edges.toDouble
    val serialEps = perRound(plain)(_.throughput)
    val tracedEps = perRound(traced)(_.throughput)
    val concEps   = if (w.concurrentPass) perRound(conc)(_.throughput) else 0.0
    val expected  = queries.indices.map(i => Decomposer.expectedJoinOps(queries(i), decomps(i).k)).sum * n
    val passes    = traced.size
    val pollRows  = plain.map(_.pollRows).sum.toDouble
    val pollNs    = plain.map(r => r.polls.sum).sum.toDouble
    val pollCount = plain.map(_.polls.length).sum.toDouble
    // Insert time left after the guarded accesses and the separately timed
    // routing. Where that goes below zero, the separate `insertPlan` call
    // costs more than the routing inside `insert`, and the match tests cannot
    // be told apart from outside: the figure reads 0 (unresolved).
    val matchNs   = (rec.insertNs - rec.insertGuardNs - rec.routeNs) / e
    val metrics = Vector(
      ("setup.input_ms", median(inputMs.toSeq), "ms"),
      ("setup.decompose_ms", median(decomposeMs.toSeq), "ms"),
      ("setup.cold_ms", setupS.head * 1e3, "ms"),
      ("setup.tcsub_count", queries.map(q => Decomposer.tcSub(q).size.toDouble).sum, "count"),
      ("driver.expire_ns_per_edge", rec.deleteNs / e, "ns"),
      ("driver.expired_per_edge", rec.deletes / e, "count"),
      ("route.ns_per_edge", rec.routeNs / e, "ns"),
      ("route.hit_ratio", rec.routeHits / e, "ratio"),
      ("route.plan_steps_per_edge", rec.planSteps / e, "count"),
      ("chain.read_ns_per_edge", rec.chainReadNs / e, "ns"),
      ("chain.rows_read_per_edge", rec.chainRows / e, "count"),
      ("chain.write_ns_per_edge", rec.chainWriteNs / e, "ns"),
      ("chain.nodes_created_per_edge", rec.chainCreated / e, "count"),
      ("chain.extend_ratio", ratio(rec.chainCreated, rec.chainRows), "ratio"),
      ("l0.read_ns_per_edge", rec.l0ReadNs / e, "ns"),
      ("l0.rows_read_per_edge", rec.l0Rows / e, "count"),
      ("l0.write_ns_per_edge", rec.l0WriteNs / e, "ns"),
      ("l0.nodes_created_per_edge", rec.l0Created / e, "count"),
      ("l0.join_ratio", ratio(rec.l0Created, rec.l0Rows), "ratio"),
      ("match.ns_per_edge", math.max(0.0, matchNs), "ns"),
      ("engine.join_ops_per_edge", rec.joinOps / e, "count"),
      ("engine.join_ops_vs_theorem7", rec.joinOps / (expected * passes), "ratio"),
      ("engine.matches_per_edge", rec.matches / e, "count"),
      ("expire.chain_ns_per_edge", rec.expChainNs / e, "ns"),
      ("expire.l0_ns_per_edge", rec.expL0Ns / e, "ns"),
      ("expire.nodes_removed_per_edge", rec.removed / e, "count"),
      ("poll.rows", pollRows / pollCount, "count"),
      ("poll.ns_per_row", pollNs / math.max(1.0, pollRows), "ns"),
      ("store.peak_cells", peakCells.toDouble, "count"),
      ("store.bytes_per_cell", ratio(peak, cellsAtPeak), "B"),
      ("jvm.alloc_bytes_per_edge", plain.map(_.allocBytes).sum / adv, "B"),
      ("jvm.gc_ms", plain.map(_.gcMs).sum.toDouble / plain.size, "ms"),
      ("dispatch.ns_per_edge",
        if (w.concurrentPass) conc.map(r => r.latency.sum).sum.toDouble / conc.map(_.advances).sum else 0.0, "ns"),
      ("dispatch.txns_per_edge", txns.sum.toDouble / (n.toLong * queries.size), "count"),
      ("concurrent.drain_ms",
        if (w.concurrentPass) conc.map(_.drainNs).sum / 1e6 / conc.map(_.drains).sum else 0.0, "ms"),
      ("concurrent.vs_serial", concEps / serialEps, "ratio"),
      ("concurrent.throughput_eps", concEps, "edges/s"),
      ("serial.throughput_eps", serialEps, "edges/s"),
      ("trace.overhead_ratio", tracedEps / serialEps, "ratio"),
      ("invariant.items_checked", rec.itemsChecked.toDouble, "count"),
    )
    val info = s"untraced_rounds=${plain.size} traced_rounds=${traced.size} concurrent_rounds=${conc.size} " +
      s"traced_eps=${fmt(tracedEps)} untraced_eps=${fmt(serialEps)} spans=${rec.spans.size}" +
      (if (matchNs < 0) s" match_ns_unresolved=${fmt(matchNs)}" else "")
    (metrics, info)
  }

  private def writeSpans(rec: Recorder, file: java.io.File): Unit = {
    file.getParentFile.mkdirs()
    val out = new java.io.PrintWriter(file, "UTF-8")
    try rec.spans.foreach { s =>
      out.println(s"""{"id":${s.id},"parent":${s.parent},"edge":${s.trace},"name":"${s.name}","start_ns":${s.start},"end_ns":${s.end}}""")
    }
    finally out.close()
  }
}

object Bench {
  val SetupReps      = 15
  val WarmUpNs       = 4000000000L
  val Checkpoints    = 4
  val PollCheckEvery = 5
  val SpanEvery      = 64
  val MaxSpans       = 50000

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Nearest-rank percentile. */
  def percentile(xs: Array[Long], p: Double): Double = {
    val s = xs.sorted
    s(math.min(s.length - 1, math.max(0, math.ceil(p * s.length).toInt - 1))).toDouble
  }

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs     = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector

  def gcMillis(): Long = gcs.map(_.getCollectionTime).sum

  def ratio(a: Long, b: Long): Double = if (b == 0) 0.0 else a.toDouble / b

  def fmt(x: Double): String = f"$x%.1f"
}
