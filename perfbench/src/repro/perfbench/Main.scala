package repro.perfbench

import java.io.File
import scala.io.Source

/** Entry point of one benchmark run; see perfbench/README.md.
  *
  * {{{
  * Main --workload NAME --seed N --millis MS --trace 0|1 --digests FILE --out DIR
  * Main --print-digests
  * }}}
  * The last line of standard output is the JSON result.
  */
object Main {

  /** The run is stopped, without a result, once it has taken this long. */
  val DeadlineMs = 165000L

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k -> v }.toMap
    if (args.contains("--print-digests")) {
      Workloads.all.foreach { w =>
        val (in, base) = Workloads.inputs(w, 0L)
        println(s"${w.name} ${Workloads.digest(base, in.queries)}")
      }
      return
    }
    def need(k: String): String = opts.getOrElse(k, { System.err.println(s"missing $k"); sys.exit(2) })
    val w       = Workloads.byName(need("--workload"))
    val seed    = need("--seed").toLong
    val millis  = need("--millis").toLong
    val trace   = need("--trace") == "1"
    val pinned  = readDigests(new File(need("--digests")))

    val watchdog = new Thread(() => {
      Thread.sleep(DeadlineMs)
      System.err.println(s"perfbench: run exceeded ${DeadlineMs / 1000} s; stopping without a result")
      Runtime.getRuntime.halt(3)
    })
    watchdog.setDaemon(true)
    watchdog.start()

    val bench = new Bench(w, seed, millis)
    val got   = bench.digest
    pinned.get(w.name) match {
      case Some(d) if d == got => ()
      case other =>
        System.err.println(
          s"perfbench: the inputs of ${w.name} changed (digest $got, pinned ${other.getOrElse("none")}). " +
            "A change to repro.data altered the stream or the query set; if that is intended, " +
            "print the new digests with `python3 perfbench/run.py --print-digests` and pin them.")
        sys.exit(4)
    }
    println(f"perfbench: workload=${w.name} seed=$seed edges=${bench.edgeCount} queries=${bench.queryCount} " +
      f"matches=${bench.referenceMatches} reference_s=${bench.referenceS}%.2f")

    val (metrics, info) =
      if (trace) bench.perLayer(new File(need("--out"), s"spans-${w.name}-seed$seed.jsonl"))
      else bench.endToEnd()
    println(s"perfbench: $info")
    println(s"perfbench: attempted=${bench.attempted} failed=${bench.failures.count} capped_inserts=${bench.cappedInserts}")
    bench.failures.byReason.foreach { case (why, k) => println(s"perfbench: FAILED x$k: $why") }
    bench.broken.foreach(b => println(s"perfbench: CHECK FAILED: $b"))
    metrics.foreach { case (name, v, unit) => println(f"perfbench: $name%-32s $v%.6g $unit") }

    val ms = metrics.map { case (name, v, unit) => s""""$name": {"value": ${num(v)}, "unit": "$unit"}""" }
    println(s"""{"correct": ${bench.broken.isEmpty}, "attempted": ${bench.attempted}, "failed": ${bench.failures.count}, "metrics": {${ms.mkString(", ")}}}""")
    System.out.flush()
    sys.exit(0)
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else BigDecimal(v).bigDecimal.toPlainString

  /** `name digest` per line; blank lines and `#` comments are skipped. */
  private def readDigests(f: File): Map[String, String] = {
    val src = Source.fromFile(f, "UTF-8")
    try src.getLines().map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#"))
      .map(_.split("\\s+")).collect { case Array(k, v) => k -> v }.toMap
    finally src.close()
  }
}
