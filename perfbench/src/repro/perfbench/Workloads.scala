package repro.perfbench

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import scala.util.Random

import repro.core._
import repro.data.{GraphStreams, QueryGenerator}

/** One benchmark workload: a fixed base stream and query set, how often the
  * client polls `results`, and whether the traced run also replays the
  * edges through the concurrent engine.
  */
final case class Workload(
    name: String,
    pollEvery: Int,
    concurrentPass: Boolean,
    base: () => (Vector[StreamEdge], Vector[QueryGraph]),
)

/** The inputs of one run: the base stream relabelled by the run's seed. */
final case class Inputs(stream: Vector[StreamEdge], queries: Vector[QueryGraph])

object Workloads {

  val Window: Long = 1500L

  /** Worker threads of the concurrent pass; with the dispatcher this fills
    * a 4-core machine without oversubscribing it.
    */
  val Workers: Int = 3

  /** Wiki-talk stand-in with the bench calibration (users = edges / 250,
    * 26 vertex labels, one edge label) and the first three size-8
    * random-order queries the generator finds from seed 100 on.
    */
  private def wikiBase(): (Vector[StreamEdge], Vector[QueryGraph]) = {
    val n      = 30000
    val stream = GraphStreams.wikiTalk(n, nUsers = n / 250, seed = 11)
    val qs     = Iterator.from(100).take(200)
      .flatMap(s => QueryGenerator.fromStream(stream, 8, QueryGenerator.RandomOrder, s.toLong, Window))
      .take(3).toVector
    require(qs.size == 3, "wiki-route: the generator found fewer than 3 queries")
    (stream, qs)
  }

  /** Generator seeds of the traffic queries: size 6, random order, each with
    * a TC decomposition of k >= 2, so every arriving match goes through the
    * `L_0` join. Together they keep about 2K to 5K cells live.
    */
  val TrafficQuerySeeds: Vector[Long] = Vector(107L, 122L, 135L, 136L)

  /** Dense traffic stand-in: 120 hosts, 10 ports. The queries are drawn
    * from a 20K-edge stream; the workload replays its first 6K edges.
    */
  private def trafficBase(): (Vector[StreamEdge], Vector[QueryGraph]) = {
    val canon  = GraphStreams.traffic(20000, nHosts = 120, nPorts = 10, seed = 7)
    val stream = canon.take(6000)
    val qs = TrafficQuerySeeds.map { s =>
      val q = QueryGenerator.fromStream(canon, 6, QueryGenerator.RandomOrder, s, Window)
        .getOrElse(sys.error(s"traffic: no query for generator seed $s"))
      require(Decomposer.decompose(q).k >= 2, s"traffic: query of seed $s has k < 2")
      q
    }
    (stream, qs)
  }

  val all: Vector[Workload] = Vector(
    Workload("wiki-route", pollEvery = 50, concurrentPass = false, () => wikiBase()),
    Workload("traffic-join", pollEvery = 200, concurrentPass = true, () => trafficBase()),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))

  /** The run's inputs: the base stream with its vertex ids permuted and its
    * edge ids and timestamps shifted, all drawn from `seed`. Labels, edge
    * order and timestamp gaps are kept, so every seed yields an isomorphic
    * stream: the ids the engine hashes differ, the work it does does not.
    */
  def relabel(base: Vector[StreamEdge], seed: Long): Vector[StreamEdge] = {
    val rnd   = new Random(seed)
    val verts = base.flatMap(e => Seq(e.src, e.dst)).distinct.sorted
    val perm  = rnd.shuffle(verts.indices.toVector)
    val vOff  = 1000L * (1 + rnd.nextInt(1000000))
    val ids   = verts.zip(perm).map { case (v, p) => v -> (vOff + p) }.toMap
    val shift = 1L + rnd.nextInt(1000000000)
    base.map(e => e.copy(id = e.id + shift, src = ids(e.src), dst = ids(e.dst), ts = e.ts + shift))
  }

  def inputs(w: Workload, seed: Long): (Inputs, Vector[StreamEdge]) = {
    val (stream, qs) = w.base()
    (Inputs(relabel(stream, seed), qs), stream)
  }

  /** SHA-256 over the base stream and the query set, as text. */
  def digest(stream: Vector[StreamEdge], qs: Vector[QueryGraph]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    def put(s: String): Unit = md.update(s.getBytes(StandardCharsets.UTF_8))
    stream.foreach(e => put(s"${e.id},${e.src},${e.srcLabel},${e.dst},${e.dstLabel},${e.label},${e.ts}\n"))
    qs.foreach { q =>
      put("Q\n")
      q.vertices.sortBy(_.id).foreach(v => put(s"v${v.id},${v.label}\n"))
      q.edges.sortBy(_.id).foreach(e => put(s"e${e.id},${e.src},${e.dst},${e.label}\n"))
      q.order.toSeq.sorted.foreach { case (a, b) => put(s"o$a,$b\n") }
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }
}
