package repro.gridbench

import java.security.MessageDigest

import org.apache.spark.sql.{DataFrame, Row}

import repro.core.Specs

/** Output checks of one pass and an order-independent digest of its rows. */
object Check {

  final case class Result(failures: Seq[String], digest: String) {
    def ok: Boolean = failures.isEmpty
  }

  /** SHA-256 over the sorted rows; doubles print with all their digits. */
  def digest(rows: Iterable[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    rows.toSeq.sorted.foreach { s =>
      md.update(s.getBytes("UTF-8")); md.update('\n'.toByte)
    }
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  private def expect(failures: collection.mutable.Buffer[String], ok: Boolean, what: => String): Unit =
    if (!ok) failures += what

  /** Checks shared by both kinds of workload: relation sizes, the split
    * count behind every flag, and Q1 totals that add up to each relation.
    */
  private def relationChecks(f: collection.mutable.Buffer[String],
                             rels: Seq[(String, Seq[Row])], expected: Map[String, Int],
                             splits: Int, queries: Seq[(String, Seq[Row])]): Unit = {
    for ((name, rows) <- rels) {
      expect(f, rows.size == expected(name), s"$name has ${rows.size} rows, Specs gives ${expected(name)}")
      val wrongSplits = rows.count(r => r.getAs[Int]("n_splits") != splits)
      expect(f, wrongSplits == 0, s"$name: $wrongSplits specs with n_splits != $splits")
      val byError = rows.groupBy(_.getAs[String]("error_type")).view.mapValues(_.size).toMap
      for ((e, n) <- byError) {
        val q1 = queries.find(_._1 == s"Q1/$name/$e").map(_._2.map(_.getAs[Long]("cnt")).sum)
        expect(f, q1.contains(n.toLong), s"Q1/$name/$e counts $q1, relation has $n")
      }
    }
  }

  private def collectRelations(rels: Seq[(String, DataFrame)]): Seq[(String, Seq[Row])] =
    rels.map { case (n, df) => n -> df.collect().toSeq }

  /** Grid workloads: one measurement row per spec, split and seed, every
    * metric finite and in [0, 1]. The digest covers the measurement rows.
    */
  def grid(meas: Seq[Row], expectedRows: Int, rels: Seq[(String, DataFrame)],
           expectedRels: Map[String, Int], splits: Int,
           queries: Seq[(String, Seq[Row])]): Result = {
    val f = collection.mutable.Buffer.empty[String]
    expect(f, meas.size == expectedRows, s"${meas.size} measurement rows, expected $expectedRows")
    val bad = meas.count { r =>
      Seq("val_b", "test_b", "val_d", "test_d").exists { c =>
        val v = r.getAs[Double](c); v.isNaN || v < 0.0 || v > 1.0
      }
    }
    expect(f, bad == 0, s"$bad measurement rows with a metric outside [0, 1]")
    relationChecks(f, collectRelations(rels), expectedRels, splits, queries)
    Result(f.toSeq, digest(meas.map(_.mkString("|"))))
  }

  /** analyze-paper: the stored table reads back whole, and R1 recovers
    * every planted effect: planted P specs flag P, planted N specs flag N,
    * and at most 1% of the specs without an effect flag either. The digest
    * covers the R1–R3 rows.
    */
  def analyze(rowCount: Long, expectedRows: Long, badMetricRows: Long,
              rels: Seq[(String, DataFrame)], expectedRels: Map[String, Int], splits: Int,
              queries: Seq[(String, Seq[Row])], planted: Map[Specs.R1Spec, String]): Result = {
    val f = collection.mutable.Buffer.empty[String]
    expect(f, rowCount == expectedRows, s"$rowCount measurement rows, expected $expectedRows")
    expect(f, badMetricRows == 0, s"$badMetricRows measurement rows with a metric outside [0, 1]")
    val collected = collectRelations(rels)
    relationChecks(f, collected, expectedRels, splits, queries)
    val r1 = collected.find(_._1 == "R1").get._2
    val flagged = r1.map { r =>
      val s = Specs.R1Spec(r.getAs[String]("dataset"), r.getAs[String]("error_type"),
        r.getAs[String]("detect"), r.getAs[String]("repair"), r.getAs[String]("model"),
        r.getAs[String]("scenario"))
      (planted.getOrElse(s, "?"), r.getAs[String]("flag"))
    }
    val missed = flagged.count { case (p, got) => p != "S" && p != got }
    val falseFlags = flagged.count { case (p, got) => p == "S" && got != "S" }
    val nulls = flagged.count(_._1 == "S")
    expect(f, missed == 0, s"$missed planted effects not recovered in R1")
    expect(f, falseFlags <= nulls / 100, s"$falseFlags of $nulls no-effect specs flagged P or N")
    Result(f.toSeq, digest(collected.flatMap { case (n, rows) => rows.map(r => s"$n|${r.mkString("|")}") }))
  }
}
