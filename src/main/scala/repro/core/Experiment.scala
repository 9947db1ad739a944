package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.util.{Random, Try}

import org.apache.spark.ml.PipelineModel
import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.clean.CleaningMethods
import repro.core.ErrorType._
import repro.data.{BenchDataset, DataSpec}
import repro.ml.{Evaluate, Examples, Features, ModelAdapter, Models, TrainSet}

/** Runs the experiments of one *cell* — a (dataset, error type, variant,
  * split) — producing the raw measurements for every cleaning method,
  * scenario, model, and search seed (paper §4.1).
  *
  * Models are fit in Spark; every featurized set they are scored on is
  * collected once per cell, and prediction and scoring run on the driver.
  */
object Experiment {

  /** A fitted model: its validation score and a predictor over features. */
  final case class Fitted(valScore: Double, predict: Vector => Double)

  /** A featurized training arm: the preprocessing pipeline fit on this
    * arm's training set, the downsampled sub-train (cached frame and
    * collected rows), the collected validation fold, and the arm's class
    * histogram for degenerate-case guards.
    */
  final case class Arm(spec: DataSpec, pipeline: PipelineModel, train: TrainSet,
                       valFold: Examples, classCounts: Map[Double, Long])

  /** Build a training arm from raw training rows. Its sub-train frame is
    * cached; the caller unpersists `train.frame`.
    */
  def buildArm(spec: DataSpec, trainRaw: DataFrame, split: Int): Arm = {
    val pipeline = Features.fit(spec, trainRaw)
    val featurized = pipeline.transform(trainRaw)
      .select(col("rid"), col(Features.FeaturesCol), col("label"))
    val (sub0, valFold) = Splits.subVal(featurized, salt = split * 131 + 17)
    val sub = Features.downsample(spec, sub0, seed = split.toLong).cache()
    val rows = Features.collect(sub)
    val classCounts = rows.label.groupBy(identity).map { case (l, ls) => l -> ls.length.toLong }
    Arm(spec, pipeline, TrainSet(sub, rows), Features.collect(valFold), classCounts)
  }

  /** Fit one model on an arm with random hyperparameter search (searchK
    * configs; the config with the best validation score wins). Falls back
    * to a majority-class predictor on degenerate arms or failed fits.
    */
  def fitModel(arm: Arm, adapter: ModelAdapter, metric: String,
               split: Int, seed: Int, cfg: RunConfig): Fitted = {
    def scored(predict: Vector => Double): Fitted =
      Fitted(evalOn(predict, arm.valFold, metric), predict)
    val majority: Double =
      if (arm.classCounts.isEmpty) 0.0
      else arm.classCounts.maxBy { case (l, n) => (n, -l) }._1
    def constant: Fitted = scored(_ => majority)
    if (arm.classCounts.size < 2 || arm.classCounts.values.sum < 8) return constant

    val rng = new Random(seedMix(arm.spec.name, adapter.name, split, seed))
    val configs =
      if (cfg.searchK <= 1) Seq(adapter.defaults)
      else (0 until cfg.searchK).map(_ => adapter.sample(rng))
    val modelSeed = split.toLong * 7919 + seed * 131 + adapter.name.hashCode

    val fitted = configs.flatMap { params =>
      Try(scored(adapter.fit(arm.train, params, modelSeed))).toOption
    }
    if (fitted.isEmpty) constant
    else fitted.maxBy(_.valScore)
  }

  private def seedMix(parts: Any*): Long =
    parts.foldLeft(1125899906842597L)((h, p) => 31 * h + p.hashCode())

  /** Score of a predictor on a collected featurized set. */
  def evalOn(predict: Vector => Double, set: Examples, metric: String): Double =
    Evaluate.score(set.label, set.features.map(predict), metric)

  /** Run one cell: all methods × scenarios × models × seeds at one split.
    *
    * Each cleaning method's cleaned train is the D arm. The B arm and the
    * scenarios ([[Specs.scenariosFor]]) follow paper §3.4 (Tables 4–5): for
    * missing values B is deletion-trained and only BD exists, both sides
    * evaluated on the method's imputed test set; otherwise B is trained on
    * the raw train, and CD adds the D model on the raw test set.
    */
  def runCell(ds: BenchDataset, error: ErrorType, variant: String,
              full: DataFrame, split: Int, cfg: RunConfig): Seq[Measurement] = {
    val spec   = ds.spec
    val dsName = ds.relName(error, variant)
    val metric = spec.metric
    val cached = ArrayBuffer.empty[DataFrame]
    val out    = ArrayBuffer.empty[Measurement]
    try {
      val (trainRaw, testRaw) = Splits.trainTest(full, split)
      val models = cfg.models.map(Models.byName)
      val cleaners = CleaningMethods.forError(error).filter(c =>
        cfg.methodFilter.forall(_.contains((c.method.detect, c.method.repair))))

      val scenarios = Specs.scenariosFor(error)
      val trainB =
        if (error == MissingValues) repro.clean.MissingValues.Deletion.clean(spec, trainRaw, testRaw)._1
        else trainRaw
      val armB = buildArm(spec, trainB, split)
      cached += armB.train.frame
      val arms = cleaners.map { c =>
        val (trC0, teC0) = c.clean(spec, trainRaw, testRaw)
        // Cache the cleaned sets: the feature pipeline makes several passes
        // over the train, each test is featurized twice, and the cleaning
        // transforms (iforest UDFs, per-cell repairs) are expensive to
        // recompute.
        val trC = trC0.cache(); val teC = teC0.cache()
        val armD = buildArm(spec, trC, split)
        cached ++= Seq(trC, teC, armD.train.frame)
        // The test set of each scenario's "before" side, featurized by the
        // arm whose model is scored on it.
        val testsBefore = scenarios.map {
          case Scenario.BD => Features.featurize(armB.pipeline, teC)
          case Scenario.CD => Features.featurize(armD.pipeline, testRaw)
        }
        (c.method, armD, Features.featurize(armD.pipeline, teC), testsBefore)
      }
      for (m <- models; seed <- 0 until cfg.seeds) {
        val fB = fitModel(armB, m, metric, split, seed, cfg)
        arms.foreach { case (method, armD, testSetD, testsBefore) =>
          val fD = fitModel(armD, m, metric, split, seed, cfg)
          val testD = evalOn(fD.predict, testSetD, metric)
          scenarios.zip(testsBefore).foreach { case (sc, testSet) =>
            val before = sc match {
              case Scenario.BD => fB
              case Scenario.CD => fD
            }
            out += Measurement(dsName, error.name, method.detect, method.repair,
              sc.name, m.name, split, seed,
              before.valScore, evalOn(before.predict, testSet, metric), fD.valScore, testD)
          }
        }
      }
      out.toSeq
    } finally {
      cached.foreach(_.unpersist(blocking = false))
    }
  }
}
