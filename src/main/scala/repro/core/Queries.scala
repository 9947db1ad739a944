package repro.core

import org.apache.spark.sql.DataFrame

import repro.clean.CleaningMethods

/** The analysis SQL of paper §2.2 — Q1..Q5 group-by-flag queries over a
  * relation. The SQL strings are shared with the DuckDB oracle in tests so
  * Spark's aggregation is cross-checked row-for-row.
  */
object Queries {

  def q1Sql(view: String, e: String): String =
    s"""SELECT flag, COUNT(*) AS cnt
       |FROM $view WHERE error_type = '$e'
       |GROUP BY flag""".stripMargin

  def q2Sql(view: String, e: String): String =
    s"""SELECT scenario, flag, COUNT(*) AS cnt
       |FROM $view WHERE error_type = '$e'
       |GROUP BY scenario, flag""".stripMargin

  def q3Sql(view: String, e: String): String =
    s"""SELECT model, flag, COUNT(*) AS cnt
       |FROM $view WHERE error_type = '$e'
       |GROUP BY model, flag""".stripMargin

  def q41Sql(view: String, e: String): String =
    s"""SELECT detect AS detect_method, flag, COUNT(*) AS cnt
       |FROM $view WHERE error_type = '$e'
       |GROUP BY detect, flag""".stripMargin

  def q42Sql(view: String, e: String): String =
    s"""SELECT repair AS repair_method, flag, COUNT(*) AS cnt
       |FROM $view WHERE error_type = '$e'
       |GROUP BY repair, flag""".stripMargin

  def q5Sql(view: String, e: String): String =
    s"""SELECT dataset, flag, COUNT(*) AS cnt
       |FROM $view WHERE error_type = '$e'
       |GROUP BY dataset, flag""".stripMargin

  /** The Table 15 blocks that apply to relation `relation` ("R1", "R2" or
    * "R3") and one error type, in print order, as (name, SQL builder over
    * (view, error type)). Q2 needs more than one scenario, so missing values
    * have none; Q3 needs the model attribute, which only R1 keeps; Q4.1/Q4.2
    * need more than one cleaning method and the method attributes, which R3
    * selects away.
    */
  def table15(relation: String, error: ErrorType): Seq[(String, (String, String) => String)] = {
    val perMethod = CleaningMethods.forError(error).size > 1 && relation != "R3"
    Seq(
      Some("Q1" -> q1Sql _),
      Option.when(Specs.scenariosFor(error).size > 1)("Q2" -> q2Sql _),
      Option.when(relation == "R1")("Q3" -> q3Sql _),
      Option.when(perMethod)("Q4.1" -> q41Sql _),
      Option.when(perMethod)("Q4.2" -> q42Sql _),
      Some("Q5" -> q5Sql _)).flatten
  }

  /** Run a query against a relation DataFrame via a temp view. */
  def run(relation: DataFrame, sql: String, view: String): DataFrame = {
    relation.createOrReplaceTempView(view)
    relation.sparkSession.sql(sql)
  }
}
